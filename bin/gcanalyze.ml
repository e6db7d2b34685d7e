(* gcanalyze: static must/may hit-miss analysis of access programs,
   cross-validated against the dynamic simulator.

   Examples:
     gcanalyze list
     gcanalyze run --program matmul-blocked --policy lru --ways 4
     gcanalyze run --program demo --grid --json -
     gcanalyze run trace.gct --policy plru --sets 2 --ways 2
     gcanalyze check
     gcanalyze check --unsound        # must exit 3: the harness catches it

   Exit codes: 0 ok, 1 runtime failure, 2 usage error, 3 when
   cross-validation finds a contradiction (a static always-* claim the
   simulator refutes — same category as a model violation). *)

open Cmdliner

(* This tool's EXIT STATUS entries, shown by every --help page it has. *)
let exits =
  Cli_common.exits
  @ [
      Cmd.Exit.info Cli_common.model_violation
        ~doc:
          "when cross-validation finds a contradiction between a \
           static verdict and the simulator.";
    ]

module A = Gc_analysis

let policy_names = [ "lru"; "fifo"; "plru" ]

let resolve_program prog trace =
  match (prog, trace) with
  | Some name, None -> (
      match A.Catalog.find name with
      | Some p -> (name, p)
      | None ->
          Cli_common.fail_usage "unknown program %S, expected one of: %s" name
            (String.concat ", " (A.Catalog.names ())))
  | None, Some path ->
      let t = Cli_common.read_trace path in
      ( (if path = "-" then "stdin" else Filename.basename path),
        A.Reroll.of_trace t )
  | None, None ->
      Cli_common.fail_usage "one of --program NAME or a TRACE file is required"
  | Some _, Some _ ->
      Cli_common.fail_usage "--program and a TRACE file are mutually exclusive"

let emit_doc json runs =
  match json with
  | Some "-" -> Format.printf "%a@." Gc_obs.Json.pp (A.Report.doc_to_json runs)
  | Some path ->
      Gc_obs.Export.write_json_atomic path (A.Report.doc_to_json runs)
  | None ->
      List.iter (fun r -> Format.printf "%a@." A.Report.pp_run r) runs

(* ------------------------------------------------------------------ list *)

let list_programs () =
  List.iter
    (fun (name, p) ->
      Format.printf "%-16s %4d points  %6d accesses unrolled  %5.1fx rerolled@."
        name p.A.Program.points
        (A.Program.unrolled_length p)
        (A.Reroll.compression p))
    (A.Catalog.programs ());
  Cli_common.ok

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~exits ~doc:"List the built-in analyzable programs")
    Term.(const list_programs $ const ())

(* ------------------------------------------------------------- arguments *)

let program_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "program" ] ~docv:"NAME"
        ~doc:"Analyze a built-in program (see $(b,gcanalyze list)).")

let trace_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"TRACE"
        ~doc:
          "Analyze a trace file instead: loops are re-rolled from exact \
           repeats, then the program is analyzed like a built-in one.")

let policy_arg =
  Arg.(
    value
    & opt (Cli_common.choice_conv policy_names) "lru"
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Replacement policy: $(b,lru), $(b,fifo) or $(b,plru).")

let sets_arg =
  Arg.(value & opt int 1 & info [ "sets" ] ~docv:"N" ~doc:"Cache sets.")

let ways_arg =
  Arg.(value & opt int 4 & info [ "ways" ] ~docv:"N" ~doc:"Ways per set.")

let engine_arg =
  Arg.(
    value
    & opt (Cli_common.choice_conv [ "exact"; "age"; "both" ]) "both"
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "$(b,exact) (collecting semantics, any policy), $(b,age) \
           (must/may age bounds, LRU only), or $(b,both) (age added on \
           LRU configs).")

let grid_arg =
  Arg.(
    value
    & flag
    & info [ "grid" ]
        ~doc:
          "Ignore $(b,--policy)/$(b,--sets)/$(b,--ways)/$(b,--engine) and \
           run the full standard grid (every policy x geometry, both \
           engines where applicable) — the golden-fixture surface.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the report as JSON to $(docv) ($(b,-) for stdout).")

(* ------------------------------------------------------------------- run *)

let run_analysis prog trace policy sets ways engine grid json =
  let name, p = resolve_program prog trace in
  let runs =
    if grid then A.Engine.grid ~name p
    else
      let policy =
        match A.Cache_model.policy_of_name policy with
        | Some p -> p
        | None -> Cli_common.fail_usage "unknown policy %S" policy
      in
      let cfg = { A.Cache_model.policy; sets; ways } in
      let kinds =
        match engine with
        | "exact" -> [ A.Engine.Exact ]
        | "age" ->
            if policy <> A.Cache_model.Lru then
              Cli_common.fail_usage
                "--engine age models LRU only; use --engine exact for %s"
                (A.Cache_model.policy_name policy);
            [ A.Engine.Age ]
        | _ ->
            if policy = A.Cache_model.Lru then
              [ A.Engine.Exact; A.Engine.Age ]
            else [ A.Engine.Exact ]
      in
      List.map (fun k -> A.Engine.run k cfg ~name p) kinds
  in
  emit_doc json runs;
  Cli_common.ok

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~exits ~doc:"Classify every program point of one program")
    Term.(
      const run_analysis $ program_arg $ trace_arg $ policy_arg $ sets_arg
      $ ways_arg $ engine_arg $ grid_arg $ json_arg)

(* ----------------------------------------------------------------- check *)

let programs_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "program" ] ~docv:"NAME"
        ~doc:"Restrict the audit to $(docv) (repeatable; default: all).")

let unsound_arg =
  Arg.(
    value
    & flag
    & info [ "unsound" ]
        ~doc:
          "Swap the age engine for a deliberately broken must-domain \
           (fault injection): the audit is then expected to find \
           contradictions and exit 3.")

let check progs unsound json =
  let programs =
    match progs with
    | [] -> A.Catalog.programs ()
    | names ->
        List.map
          (fun n ->
            match A.Catalog.find n with
            | Some p -> (n, p)
            | None ->
                Cli_common.fail_usage "unknown program %S, expected one of: %s"
                  n
                  (String.concat ", " (A.Catalog.names ())))
          names
  in
  let summary =
    A.Crosscheck.check ~unsound programs A.Engine.standard_configs
  in
  (match json with
  | Some "-" ->
      Format.printf "%a@." Gc_obs.Json.pp (A.Crosscheck.summary_to_json summary)
  | Some path ->
      Gc_obs.Export.write_json_atomic path
        (A.Crosscheck.summary_to_json summary);
      Format.printf "%a@." A.Crosscheck.pp_summary summary
  | None -> Format.printf "%a@." A.Crosscheck.pp_summary summary);
  if summary.A.Crosscheck.contradictions = [] then Cli_common.ok
  else Cli_common.model_violation

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~exits
       ~doc:
         "Cross-validate every static always-* verdict against the \
          simulator")
    Term.(const check $ programs_arg $ unsound_arg $ json_arg)

(* ------------------------------------------------------------------ main *)

let () =
  let info =
    Cmd.info "gcanalyze" ~exits
      ~doc:"Static must/may hit-miss analysis for GC-caching programs"
  in
  exit (Cli_common.eval (Cmd.group info [ list_cmd; run_cmd; check_cmd ]))
