(* gcprof: the perf-regression gate for bench/main.exe manifests.

   gcprof compare OLD.json NEW.json
       Gate a fresh bench manifest against a committed baseline: exit 1
       when any policy's ns_per_access regressed by more than the
       threshold (default 10%) or its minor allocation per access grew
       beyond the allocation threshold.  The @bench-regress alias runs
       this against the repo's committed BENCH_*.json.

   Span traces need no conversion: gcserved --trace writes Chrome
   trace-event JSON (Gc_prof.Chrome) directly.

   Exit codes follow the shared contract (doc/ROBUSTNESS.md): 0 ok,
   1 runtime failure (missing/corrupt file, regression detected),
   2 usage error. *)

open Cmdliner
module Json = Gc_obs.Json

(* ------------------------------------------------------------- manifests *)

let read_json path =
  let text =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> s
    | exception Sys_error msg -> Cli_common.fail_runtime "%s" msg
  in
  match Json.parse text with
  | Ok j -> j
  | Error e ->
      Cli_common.fail_runtime "%s: %s" path (Json.string_of_parse_error e)

type perf_row = {
  ns_per_access : float;
  minor_per_access : float option;
      (* absent in manifests written before allocation profiling *)
}

let float_member name json =
  match Json.member name json with
  | Some (Json.Float v) -> Some v
  | Some (Json.Int v) -> Some (float_of_int v)
  | _ -> None

(* The perf rows of a bench manifest: extra.perf, one object per policy
   (see bench/main.ml).  A manifest without a perf section is a runtime
   error — comparing it would vacuously pass. *)
let perf_rows path json =
  let rows =
    match Option.bind (Json.member "extra" json) (Json.member "perf") with
    | Some (Json.Array rows) -> rows
    | _ ->
        Cli_common.fail_runtime
          "%s: no extra.perf section (not a bench --json manifest covering \
           the perf section?)"
          path
  in
  List.map
    (fun row ->
      match (Json.member "policy" row, float_member "ns_per_access" row) with
      | Some (Json.String policy), Some ns ->
          ( policy,
            {
              ns_per_access = ns;
              minor_per_access = float_member "minor_words_per_access" row;
            } )
      | _ ->
          Cli_common.fail_runtime
            "%s: malformed perf row (need string \"policy\" and numeric \
             \"ns_per_access\")"
            path)
    rows

let compare_cmd =
  let compare old_path new_path threshold alloc_threshold alloc_slack =
    let old_rows = perf_rows old_path (read_json old_path) in
    let new_rows = perf_rows new_path (read_json new_path) in
    let regressions = ref 0 in
    let pct a b = 100. *. ((b /. a) -. 1.) in
    Format.printf "%-18s %12s %12s %8s  %s@." "policy" "old ns/acc"
      "new ns/acc" "delta" "verdict";
    List.iter
      (fun (policy, old_row) ->
        match List.assoc_opt policy new_rows with
        | None ->
            incr regressions;
            Format.printf "%-18s %12.1f %12s %8s  MISSING from %s@." policy
              old_row.ns_per_access "-" "-" new_path
        | Some new_row ->
            let d = pct old_row.ns_per_access new_row.ns_per_access in
            let slow = d > threshold in
            let alloc_verdict =
              match (old_row.minor_per_access, new_row.minor_per_access) with
              | Some old_m, Some new_m
                when new_m > (old_m *. (1. +. (alloc_threshold /. 100.)))
                     +. alloc_slack ->
                  Some
                    (Printf.sprintf "minor words/acc %.2f -> %.2f" old_m new_m)
              | _ -> None
            in
            if slow || alloc_verdict <> None then incr regressions;
            Format.printf "%-18s %12.1f %12.1f %+7.1f%%  %s@." policy
              old_row.ns_per_access new_row.ns_per_access d
              (match (slow, alloc_verdict) with
              | false, None -> "ok"
              | true, None -> "REGRESSED"
              | false, Some a -> "ALLOC GREW (" ^ a ^ ")"
              | true, Some a -> "REGRESSED, ALLOC GREW (" ^ a ^ ")"))
      old_rows;
    List.iter
      (fun (policy, _) ->
        if not (List.mem_assoc policy old_rows) then
          Format.printf "%-18s (new policy, no baseline — not compared)@."
            policy)
      new_rows;
    if !regressions > 0 then
      Cli_common.fail_runtime
        "%d polic%s regressed beyond the %.0f%% throughput / %.0f%% \
         allocation thresholds"
        !regressions
        (if !regressions = 1 then "y" else "ies")
        threshold alloc_threshold
    else begin
      Format.printf "no regressions beyond %.0f%% (allocation: %.0f%% + %.1f \
                     words/access slack)@."
        threshold alloc_threshold alloc_slack;
      Cli_common.ok
    end
  in
  Cmd.v
    (Cmd.info "compare" ~exits:Cli_common.exits
       ~doc:
         "Gate a fresh bench manifest against a baseline; non-zero exit on \
          a throughput or allocation regression")
    Term.(
      const compare
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"OLD" ~doc:"Baseline bench manifest (JSON).")
      $ Arg.(
          required
          & pos 1 (some string) None
          & info [] ~docv:"NEW" ~doc:"Fresh bench manifest to gate.")
      $ Arg.(
          value
          & opt float 10.
          & info [ "threshold" ] ~docv:"PCT"
              ~doc:
                "Maximum tolerated ns-per-access growth, in percent \
                 (default 10).")
      $ Arg.(
          value
          & opt float 10.
          & info [ "alloc-threshold" ] ~docv:"PCT"
              ~doc:
                "Maximum tolerated minor-words-per-access growth, in \
                 percent (default 10).")
      $ Arg.(
          value
          & opt float 0.5
          & info [ "alloc-slack" ] ~docv:"WORDS"
              ~doc:
                "Absolute minor-words-per-access slack added on top of \
                 the percentage, so near-zero baselines do not trip on \
                 noise (default 0.5)."))

let () =
  let info =
    Cmd.info "gcprof" ~doc:"Perf-regression gate for bench manifests"
      ~exits:Cli_common.exits
  in
  exit (Cli_common.eval (Cmd.group info [ compare_cmd ]))
