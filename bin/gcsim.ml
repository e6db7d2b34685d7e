(* gcsim: run caching policies over a trace and report metrics.

   Examples:
     gcsim run --policy lru --policy iblp --k 1024 trace.gct
     gcsim run --all --k 1024 --offline trace.gct
     gcsim run --all --json out.json --events events.jsonl --histograms t.gct
     gcsim run --policy lru --inject phantom-hit@100 trace.gct
     gcsim suite --policy lru --policy broken:crash@50 --json out.json
     gcsim suite --journal suite.jsonl --deadline 30   (resumable sweep)
     gcsim suite --resume suite.jsonl
     gcsim attack --construction thm2 --policy lru --k 512 --h 64 -B 16

   Exit codes (see doc/ROBUSTNESS.md): 0 ok, 1 runtime failure, 2 usage
   error, 3 model violation, 130 interrupted. *)

open Cmdliner

(* This tool's EXIT STATUS entries, shown by every --help page it has. *)
let exits =
  Cli_common.exits
  @ [
      Cmd.Exit.info Cli_common.model_violation
        ~doc:"on a model violation caught by the audit.";
      Cmd.Exit.info Cli_common.interrupted
        ~doc:
          "when interrupted (partial artifacts written; sweeps with a \
           journal can continue with $(b,--resume)).";
    ]

(* ------------------------------------------------------------------ run *)

let is_violation = function
  | Error f -> f.Gc_cache.Obs_run.kind = "model-violation"
  | Ok _ -> false

let is_failure = function Error _ -> true | Ok _ -> false

let run policies all k seed offline no_check inject json events histograms path
    =
  let trace = Cli_common.read_trace path in
  let blocks = trace.Gc_trace.Trace.blocks in
  let names = if all then Gc_cache.Registry.names else policies in
  if names = [] then
    Cli_common.fail_usage "no policies selected (use --policy or --all)";
  Cli_common.check_construction ~blocks ~seed ~ks:[ k ] names;
  let t0 = Unix.gettimeofday () in
  (* Streaming JSONL: incremental by nature, so unlike the manifest it
     cannot go through the atomic temp-file path — a crash can only tear
     the final line, which JSONL consumers skip. *)
  let events_oc =
    Option.map (open_out [@lint.allow "raw-artifact-write"]) events
  in
  Format.printf "%-14s %s@." "policy" "metrics";
  let outcomes =
    List.map
      (fun name ->
        let sink =
          Option.map
            (fun oc -> Gc_obs.Sink.jsonl ~labels:[ ("policy", name) ] oc)
            events_oc
        in
        (* Fresh injector per policy; its fired-probe feeds the drill
           report below. *)
        let fired = ref (fun () -> None) in
        let wrap =
          Option.map
            (fun spec p ->
              let p, f = Gc_fault.Injector.wrap spec ~blocks p in
              fired := f;
              p)
            inject
        in
        let outcome =
          Gc_cache.Obs_run.run_policy_result ~check:(not no_check) ~histograms
            ?sink ?wrap ~k ~seed name trace
        in
        (match outcome with
        | Ok r ->
            Format.printf "%-14s %s@." name
              (Gc_cache.Metrics.to_row r.Gc_cache.Obs_run.metrics)
        | Error f ->
            Format.printf "%-14s %s: %s@." name f.Gc_cache.Obs_run.kind
              f.Gc_cache.Obs_run.message);
        (match inject with
        | None -> ()
        | Some spec ->
            Format.printf "%-14s drill %s: %s@." "" (Gc_fault.Spec.spec_string spec)
              (match (!fired (), outcome) with
              | None, _ -> "never became eligible"
              | Some i, Error { Gc_cache.Obs_run.kind = "model-violation"; _ }
                ->
                  Printf.sprintf "fired at access %d, caught by the audit" i
              | Some i, Error _ -> Printf.sprintf "fired at access %d, run failed" i
              | Some i, Ok _ ->
                  Printf.sprintf "fired at access %d, NOT detected" i));
        outcome)
      names
  in
  Option.iter close_out events_oc;
  let results = List.filter_map Result.to_option outcomes in
  if offline then begin
    Format.printf "%-14s misses=%d@." "belady"
      (Gc_offline.Belady.(cost create ~k trace));
    let bsize = Gc_trace.Block_map.block_size blocks in
    if k >= bsize then
      Format.printf "%-14s misses=%d@." "block-belady"
        (Gc_offline.Belady.(cost block ~k trace));
    Format.printf "%-14s misses=%d@." "clairvoyant"
      (Gc_offline.Belady.(cost clairvoyant ~k trace))
  end;
  (* Histograms on a terminal run, when they are not already going to a
     manifest. *)
  if histograms && json = None then
    List.iter
      (fun r ->
        match r.Gc_cache.Obs_run.registry with
        | Some reg ->
            Format.printf "@.-- %s --@.%a@." r.Gc_cache.Obs_run.policy
              Gc_obs.Registry.pp reg
        | None -> ())
      results;
  (match json with
  | None -> ()
  | Some out ->
      let manifest =
        Gc_cache.Obs_run.manifest_of_outcomes ~tool:"gcsim" ~command:"run"
          ~seed ~k
          ~trace:(Gc_cache.Obs_run.trace_info ~path trace)
          ~wall_time_s:(Unix.gettimeofday () -. t0)
          outcomes
      in
      Gc_obs.Export.write_json_atomic out (Gc_obs.Manifest.to_json manifest);
      Format.printf "@.manifest written to %s@." out);
  if List.exists is_violation outcomes then Cli_common.model_violation
  else if List.exists is_failure outcomes then Cli_common.runtime_error
  else Cli_common.ok

let policy_arg =
  Arg.(
    value
    & opt_all Cli_common.policy_conv []
    & info [ "policy"; "p" ] ~docv:"NAME"
        ~doc:"Policy to simulate (repeatable); see gc_cache registry.")

let all_arg = Arg.(value & flag & info [ "all" ] ~doc:"Run every policy.")
let k_arg = Arg.(value & opt int 1024 & info [ "k" ] ~doc:"Cache capacity.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

let offline_arg =
  Arg.(value & flag & info [ "offline" ] ~doc:"Also run offline baselines.")

let no_check_arg =
  Arg.(value & flag & info [ "no-check" ] ~doc:"Disable model checking.")

let inject_arg =
  Arg.(
    value
    & opt (some Cli_common.inject_conv) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Fault drill: wrap each policy in a single-shot fault injector \
           (CLASS or CLASS@INDEX, e.g. $(b,phantom-hit@100)); the checked \
           simulator should flag it (exit 3).  Classes: phantom-hit, \
           phantom-miss, drop-requested, wrong-block-load, double-load, \
           reload-cached, spurious-evict, ghost-evict, hidden-evict, \
           over-occupancy.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write a machine-readable run manifest to $(docv).")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:"Stream structured events to $(docv), one JSON object per line.")

let histograms_arg =
  Arg.(
    value & flag
    & info [ "histograms" ]
        ~doc:
          "Collect eviction-age / reuse-distance / load-width / occupancy \
           histograms (into the manifest with $(b,--json), else printed).")

let path_arg =
  Arg.(value & pos 0 string "-" & info [] ~docv:"TRACE" ~doc:"Trace file.")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~exits ~doc:"Simulate policies over a trace")
    Term.(
      const run $ policy_arg $ all_arg $ k_arg $ seed_arg $ offline_arg
      $ no_check_arg $ inject_arg $ json_arg $ events_arg $ histograms_arg
      $ path_arg)

(* ---------------------------------------------------------------- suite *)

let suite policies k seed block_size domains deadline journal resume json =
  let journal, resuming = Cli_common.journal_mode ~journal ~resume in
  let entries = Gc_trace.Workload_suite.standard ~seed ~block_size () in
  let policies = if policies = [] then Gc_cache.Registry.names else policies in
  List.iter
    (fun (e : Gc_trace.Workload_suite.entry) ->
      Cli_common.check_construction ~blocks:e.trace.Gc_trace.Trace.blocks ~seed
        ~ks:[ k ] policies)
    entries;
  let t0 = Unix.gettimeofday () in
  (* One supervised cell per (policy, workload); the cell's journal
     payload is its finished manifest slot, so a resumed run replays
     completed slots verbatim.  A policy that crashes (or violates the
     model) is captured by run_policy_result inside the cell — only
     runtime-level outcomes (timeout, retries exhausted) reach the
     pool's failure path. *)
  let cells =
    List.concat_map
      (fun pname ->
        List.map
          (fun e ->
            let tag = pname ^ "@" ^ e.Gc_trace.Workload_suite.name in
            ( tag,
              fun ~cancel:_ ->
                let outcome =
                  Gc_cache.Obs_run.run_policy_result ~check:false ~k ~seed
                    pname e.Gc_trace.Workload_suite.trace
                in
                Gc_obs.Manifest.run_to_json
                  (match outcome with
                  | Ok r ->
                      Gc_cache.Obs_run.manifest_run
                        { r with Gc_cache.Obs_run.policy = tag }
                  | Error f ->
                      Gc_cache.Obs_run.failed_run
                        { f with Gc_cache.Obs_run.policy = tag }) ))
          entries)
      policies
  in
  let to_error ~key ~kind ~message =
    Gc_obs.Manifest.run_to_json
      (Gc_cache.Obs_run.failed_run
         { Gc_cache.Obs_run.policy = key; kind; message })
  in
  let meta =
    Gc_obs.Json.Obj
      [
        ("tool", Gc_obs.Json.String "gcsim");
        ("command", Gc_obs.Json.String "suite");
        ("k", Gc_obs.Json.Int k);
        ("seed", Gc_obs.Json.Int seed);
        ("block_size", Gc_obs.Json.Int block_size);
        ( "policies",
          Gc_obs.Json.Array
            (List.map (fun p -> Gc_obs.Json.String p) policies) );
      ]
  in
  let results, stats =
    Gc_exec.Supervisor.with_interrupt (fun interrupt ->
        Gc_exec.Checkpoint.run
          ~config:(Cli_common.pool_config ?domains ?deadline ())
          ~interrupt ?journal ~resume:resuming ~meta ~to_error cells)
  in
  if stats.Gc_exec.Checkpoint.resumed > 0 then
    Printf.eprintf "gcsim: resumed %d of %d cells from %s\n%!"
      stats.Gc_exec.Checkpoint.resumed stats.Gc_exec.Checkpoint.total
      (Option.value journal ~default:"journal");
  let runs =
    List.map
      (fun (c : Gc_exec.Checkpoint.cell) ->
        match c.Gc_exec.Checkpoint.payload with
        | None -> None (* cancelled by the interrupt *)
        | Some payload -> (
            match Gc_obs.Manifest.run_of_json payload with
            | Ok run -> Some run
            | Error msg ->
                Cli_common.fail_runtime "cell %s: malformed payload: %s"
                  c.Gc_exec.Checkpoint.key msg))
      results
  in
  Format.printf "misses at k = %d (workload x policy)@.@." k;
  Format.printf "%-14s" "";
  List.iter
    (fun e -> Format.printf " %12s" e.Gc_trace.Workload_suite.name)
    entries;
  Format.printf "@.";
  let arr = Array.of_list runs in
  let per_policy = List.length entries in
  List.iteri
    (fun pi pname ->
      Format.printf "%-14s" pname;
      List.iteri
        (fun ei _ ->
          match arr.((pi * per_policy) + ei) with
          | None -> Format.printf " %12s" "-"
          | Some run -> (
              match run.Gc_obs.Manifest.error with
              | Some _ -> Format.printf " %12s" "error"
              | None -> (
                  match
                    List.assoc_opt "misses" run.Gc_obs.Manifest.metrics
                  with
                  | Some (Gc_obs.Json.Int n) -> Format.printf " %12d" n
                  | _ -> Format.printf " %12s" "?")))
        entries;
      Format.printf "@.")
    policies;
  let completed = List.filter_map Fun.id runs in
  (match json with
  | None -> ()
  | Some out ->
      let wall_time_s = Unix.gettimeofday () -. t0 in
      let manifest =
        if stats.Gc_exec.Checkpoint.interrupted then
          Gc_obs.Manifest.make ~tool:"gcsim" ~command:"suite" ~seed ~k
            ~wall_time_s
            ~extra:[ ("status", Gc_obs.Json.String "interrupted") ]
            completed
        else
          Gc_obs.Manifest.make ~tool:"gcsim" ~command:"suite" ~seed ~k
            ~wall_time_s completed
      in
      Gc_obs.Export.write_json_atomic out (Gc_obs.Manifest.to_json manifest);
      Format.printf "@.manifest written to %s@." out);
  if stats.Gc_exec.Checkpoint.interrupted then begin
    Printf.eprintf "gcsim: interrupted; %d of %d cells completed%s\n%!"
      (stats.Gc_exec.Checkpoint.total - stats.Gc_exec.Checkpoint.cancelled)
      stats.Gc_exec.Checkpoint.total
      (match journal with
      | Some j -> Printf.sprintf " (continue with --resume %s)" j
      | None -> "");
    Cli_common.interrupted
  end
  else if
    List.exists
      (function
        | Some { Gc_obs.Manifest.error = Some _; _ } -> true | _ -> false)
      runs
  then Cli_common.runtime_error
  else Cli_common.ok

let suite_cmd =
  Cmd.v
    (Cmd.info "suite" ~exits
       ~doc:
         "Registry policies on the standard workload suite (a failing \
          policy is reported per-cell instead of killing the sweep)")
    Term.(
      const suite
      $ Arg.(
          value
          & opt_all Cli_common.policy_conv []
          & info [ "policy"; "p" ] ~docv:"NAME"
              ~doc:"Policy to include (repeatable; default: all).")
      $ Arg.(value & opt int 512 & info [ "k" ] ~doc:"Cache capacity.")
      $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Suite seed.")
      $ Arg.(value & opt int 16 & info [ "block-size"; "B" ] ~doc:"Block size.")
      $ Cli_common.domains_arg $ Cli_common.deadline_arg
      $ Cli_common.journal_arg $ Cli_common.resume_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "json" ] ~docv:"FILE"
              ~doc:
                "Write a run manifest (one slot per policy x workload, \
                 structured per-cell errors) to $(docv)."))

(* --------------------------------------------------------------- attack *)

let attack construction policy k h block_size cycles seed certify =
  let blocks = Gc_trace.Block_map.uniform ~block_size in
  let p = Gc_cache.Registry.make policy ~k ~blocks ~seed in
  let c =
    match construction with
    | "st" -> Gc_cache.Attack.sleator_tarjan p ~k ~h ~cycles
    | "thm2" -> Gc_cache.Attack.item_cache p ~k ~h ~block_size ~cycles
    | "thm3" -> Gc_cache.Attack.block_cache p ~k ~h ~block_size ~cycles
    | "thm4" -> Gc_cache.Attack.general_a p ~k ~h ~block_size ~cycles
    | _ ->
        (assert false [@lint.allow "exit-contract"])
        (* the enum converter rejects anything else *)
  in
  let open Gc_trace.Adversary in
  Format.printf "construction: %s vs %s (k=%d h=%d B=%d, %d cycles)@."
    construction policy k h block_size cycles;
  Format.printf "online misses:  %d@." c.online_misses;
  Format.printf "offline misses: %d (per the proof's schedule)@." c.opt_misses;
  Format.printf "measured ratio: %.3f@." (measured_ratio c);
  Format.printf "theorem bound:  %.3f@." c.bound;
  List.iter (fun (key, v) -> Format.printf "%s = %g@." key v) c.info;
  if certify then begin
    let cost = Gc_offline.Belady.(cost clairvoyant ~k:h c.trace) in
    let claimed = c.opt_misses + c.warmup_opt_misses in
    Format.printf
      "certification: clairvoyant(h) schedule costs %d vs %d claimed%s@." cost
      claimed
      (if cost <= claimed then " (certified)" else " (heuristic gap)")
  end;
  Cli_common.ok

let construction_arg =
  Arg.(
    value
    & opt (Cli_common.choice_conv [ "st"; "thm2"; "thm3"; "thm4" ]) "thm2"
    & info [ "construction"; "c" ] ~doc:"One of: st, thm2, thm3, thm4.")

let one_policy_arg =
  Arg.(
    value
    & opt Cli_common.policy_conv "lru"
    & info [ "policy"; "p" ] ~doc:"Target policy.")

let h_arg = Arg.(value & opt int 64 & info [ "h" ] ~doc:"Offline cache size.")

let block_size_arg =
  Arg.(value & opt int 16 & info [ "block-size"; "B" ] ~doc:"Items per block.")

let cycles_arg = Arg.(value & opt int 30 & info [ "cycles" ] ~doc:"Cycles.")

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:"Check the offline cost with a clairvoyant schedule.")

let attack_k_arg = Arg.(value & opt int 512 & info [ "k" ] ~doc:"Online size.")

let attack_cmd =
  Cmd.v
    (Cmd.info "attack" ~exits
       ~doc:"Run an adversarial lower-bound construction")
    Term.(
      const attack $ construction_arg $ one_policy_arg $ attack_k_arg $ h_arg
      $ block_size_arg $ cycles_arg $ seed_arg $ certify_arg)

let () =
  let info = Cmd.info "gcsim" ~exits ~doc:"GC-caching policy simulator" in
  exit (Cli_common.eval (Cmd.group info [ run_cmd; suite_cmd; attack_cmd ]))
