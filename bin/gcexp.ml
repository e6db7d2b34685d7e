(* gcexp: parameter-sweep experiment runner, CSV to stdout.

   Examples:
     gcexp miss-curve --policy lru --policy iblp --k-min 64 --k-max 4096 t.gct
     gcexp miss-curve --journal sweep.jsonl --deadline 30 big.gct
     gcexp miss-curve --resume sweep.jsonl big.gct
     gcexp split-sweep -k 1024 t.gct
     gcexp h-sweep --policy lru -k 512 -B 16 --construction thm2

   miss-curve runs on the supervised Gc_exec runtime: cells execute
   concurrently with optional per-cell deadlines, transient failures
   retry, SIGINT drains in-flight cells and exits 130 after writing
   partial artifacts, and a --journal checkpoint makes the sweep
   resumable with zero re-simulation of completed cells.

   Exit codes: 0 ok, 1 runtime failure (including any failed sweep cell),
   2 usage error, 130 interrupted. *)

open Cmdliner

(* This tool's EXIT STATUS entries, shown by every --help page it has. *)
let exits =
  Cli_common.exits
  @ [
      Cmd.Exit.info Cli_common.interrupted
        ~doc:
          "when interrupted (partial artifacts written; a journaled \
           sweep can continue with $(b,--resume)).";
    ]

let read_trace = Cli_common.read_trace

let path_arg =
  Arg.(value & pos 0 string "-" & info [] ~docv:"TRACE" ~doc:"Trace file.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

(* ------------------------------------------------------------ miss-curve *)

let geometric_grid lo hi steps =
  List.init (steps + 1) (fun idx ->
      let f = float_of_int idx /. float_of_int steps in
      int_of_float
        (Float.round
           (float_of_int lo *. Float.pow (float_of_int hi /. float_of_int lo) f)))
  |> List.sort_uniq compare

(* A sweep cell's identity within the checkpoint journal and progress
   reporting: which policy at which cache size. *)
type cell_desc = { cell_policy : string; cell_k : int }

let row_json name k (m : Gc_cache.Metrics.t) =
  Gc_obs.Json.Obj
    [
      ("policy", Gc_obs.Json.String name);
      ("k", Gc_obs.Json.Int k);
      ("misses", Gc_obs.Json.Int m.Gc_cache.Metrics.misses);
      ("hit_rate", Gc_obs.Json.Float (Gc_cache.Metrics.hit_rate m));
      ("spatial_hits", Gc_obs.Json.Int m.Gc_cache.Metrics.spatial_hits);
      ("temporal_hits", Gc_obs.Json.Int m.Gc_cache.Metrics.temporal_hits);
    ]

let offline_row name k misses =
  Gc_obs.Json.Obj
    [
      ("policy", Gc_obs.Json.String name);
      ("k", Gc_obs.Json.Int k);
      ("misses", Gc_obs.Json.Int misses);
    ]

let field payload name =
  match payload with
  | Gc_obs.Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

(* One CSV line (or, for a failed cell, one stderr diagnostic) from a
   journal-shaped row payload; counting failures for the exit code. *)
let emit_row desc payload failures =
  match field payload "error" with
  | Some (Gc_obs.Json.String msg) ->
      incr failures;
      Printf.eprintf "gcexp: %s at k=%d failed: %s\n%!" desc.cell_policy
        desc.cell_k msg
  | _ -> (
      let int_field name =
        match field payload name with
        | Some (Gc_obs.Json.Int n) -> n
        | _ -> 0
      in
      let misses = int_field "misses" in
      match field payload "hit_rate" with
      | Some (Gc_obs.Json.Float hr) ->
          Printf.printf "%s,%d,%d,%.6f,%d,%d\n" desc.cell_policy desc.cell_k
            misses hr
            (int_field "spatial_hits")
            (int_field "temporal_hits")
      | _ ->
          Printf.printf "%s,%d,%d,,,\n" desc.cell_policy desc.cell_k misses)

let miss_curve policies k_min k_max steps offline seed domains deadline journal
    resume json path =
  let journal, resuming = Cli_common.journal_mode ~journal ~resume in
  let trace = read_trace path in
  let blocks = trace.Gc_trace.Trace.blocks in
  let policies =
    if policies = [] then [ "lru"; "block-lru"; "iblp" ] else policies
  in
  let t0 = Unix.gettimeofday () in
  let grid = geometric_grid k_min k_max steps in
  Cli_common.check_construction ~blocks ~seed ~ks:grid policies;
  let progress _ = Gc_exec.Cancel.poll () in
  let descs, cells =
    List.split
      (List.concat_map
         (fun k ->
           List.map
             (fun name ->
               ( { cell_policy = name; cell_k = k },
                 ( Printf.sprintf "%s@k=%d" name k,
                   fun ~cancel:_ ->
                     let p = Gc_cache.Registry.make name ~k ~blocks ~seed in
                     row_json name k
                       (Gc_cache.Simulator.run ~check:false ~progress p trace)
                 ) ))
             policies
           @
           if offline then
             [
               ( { cell_policy = "belady"; cell_k = k },
                 ( Printf.sprintf "belady@k=%d" k,
                   fun ~cancel:_ ->
                     offline_row "belady" k (Gc_offline.Belady.(cost create ~k trace)) )
               );
               ( { cell_policy = "clairvoyant"; cell_k = k },
                 ( Printf.sprintf "clairvoyant@k=%d" k,
                   fun ~cancel:_ ->
                     offline_row "clairvoyant" k
                       (Gc_offline.Belady.(cost clairvoyant ~k trace)) ) );
             ]
           else [])
         grid)
  in
  let by_key = Hashtbl.create 64 in
  List.iter2 (fun d (key, _) -> Hashtbl.replace by_key key d) descs cells;
  (* A failed / timed-out cell keeps its slot as a structured error row;
     the rest of the grid still runs (and the error is journaled, so a
     resume does not pointlessly retry a deterministic crash). *)
  let to_error ~key ~kind ~message =
    let d = Hashtbl.find by_key key in
    Gc_obs.Json.Obj
      [
        ("policy", Gc_obs.Json.String d.cell_policy);
        ("k", Gc_obs.Json.Int d.cell_k);
        ("error", Gc_obs.Json.String message);
        ("error_kind", Gc_obs.Json.String kind);
      ]
  in
  (* The journal header pins everything that determines the grid, so a
     journal cannot silently resume a different invocation. *)
  let meta =
    Gc_obs.Json.Obj
      [
        ("tool", Gc_obs.Json.String "gcexp");
        ("command", Gc_obs.Json.String "miss-curve");
        ("seed", Gc_obs.Json.Int seed);
        ("k_min", Gc_obs.Json.Int k_min);
        ("k_max", Gc_obs.Json.Int k_max);
        ("steps", Gc_obs.Json.Int steps);
        ("offline", Gc_obs.Json.Bool offline);
        ( "policies",
          Gc_obs.Json.Array
            (List.map (fun p -> Gc_obs.Json.String p) policies) );
        ("trace_digest", Gc_obs.Json.String (Gc_trace.Trace.digest trace));
      ]
  in
  let results, stats =
    Gc_exec.Supervisor.with_interrupt (fun interrupt ->
        Gc_exec.Checkpoint.run
          ~config:(Cli_common.pool_config ?domains ?deadline ())
          ~interrupt ?journal ~resume:resuming ~meta ~to_error cells)
  in
  if stats.Gc_exec.Checkpoint.resumed > 0 then
    Printf.eprintf "gcexp: resumed %d of %d cells from %s\n%!"
      stats.Gc_exec.Checkpoint.resumed stats.Gc_exec.Checkpoint.total
      (Option.value journal ~default:"journal");
  print_endline "policy,k,misses,hit_rate,spatial_hits,temporal_hits";
  let failures = ref 0 in
  List.iter2
    (fun desc (c : Gc_exec.Checkpoint.cell) ->
      match c.Gc_exec.Checkpoint.payload with
      | None -> () (* cancelled by the interrupt; re-run on resume *)
      | Some payload -> emit_row desc payload failures)
    descs results;
  let rows =
    List.filter_map (fun c -> c.Gc_exec.Checkpoint.payload) results
  in
  (match json with
  | None -> ()
  | Some out ->
      let extra =
        ("sweep", Gc_obs.Json.Array rows)
        ::
        (if stats.Gc_exec.Checkpoint.interrupted then
           [ ("status", Gc_obs.Json.String "interrupted") ]
         else [])
      in
      let manifest =
        Gc_cache.Obs_run.manifest_of_outcomes ~tool:"gcexp" ~command:"miss-curve" ~seed
          ~trace:(Gc_cache.Obs_run.trace_info ~path trace)
          ~wall_time_s:(Unix.gettimeofday () -. t0)
          ~extra []
      in
      (* Atomic write-then-rename; the success message only prints once
         the manifest is durably in place. *)
      Gc_obs.Export.write_json_atomic out (Gc_obs.Manifest.to_json manifest);
      Printf.eprintf "manifest written to %s\n" out);
  if stats.Gc_exec.Checkpoint.interrupted then begin
    Printf.eprintf "gcexp: interrupted; %d of %d cells completed%s\n%!"
      (stats.Gc_exec.Checkpoint.total - stats.Gc_exec.Checkpoint.cancelled)
      stats.Gc_exec.Checkpoint.total
      (match journal with
      | Some j -> Printf.sprintf " (continue with --resume %s)" j
      | None -> "");
    Cli_common.interrupted
  end
  else if !failures > 0 then Cli_common.runtime_error
  else Cli_common.ok

let policies_arg =
  Arg.(
    value
    & opt_all Cli_common.policy_conv []
    & info [ "policy"; "p" ] ~doc:"Policies to sweep (repeatable).")

let k_min_arg = Arg.(value & opt int 64 & info [ "k-min" ] ~doc:"Smallest k.")
let k_max_arg = Arg.(value & opt int 4096 & info [ "k-max" ] ~doc:"Largest k.")
let steps_arg = Arg.(value & opt int 8 & info [ "steps" ] ~doc:"Grid points.")

let offline_arg =
  Arg.(value & flag & info [ "offline" ] ~doc:"Include offline baselines.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Also write a run manifest with the sweep rows (under \
           $(b,extra.sweep)) to $(docv).")

let miss_curve_cmd =
  Cmd.v
    (Cmd.info "miss-curve" ~exits ~doc:"Misses vs cache size, per policy (CSV)")
    Term.(
      const miss_curve $ policies_arg $ k_min_arg $ k_max_arg $ steps_arg
      $ offline_arg $ seed_arg $ Cli_common.domains_arg
      $ Cli_common.deadline_arg $ Cli_common.journal_arg
      $ Cli_common.resume_arg $ json_arg $ path_arg)

(* ----------------------------------------------------------- split-sweep *)

let split_sweep k points seed path =
  let trace = read_trace path in
  let blocks = trace.Gc_trace.Trace.blocks in
  let bsize = Gc_trace.Block_map.block_size blocks in
  ignore seed;
  print_endline "i,b,misses,spatial_hits,temporal_hits";
  List.iter
    (fun idx ->
      let i = idx * k / points / bsize * bsize in
      let b = k - i in
      let p = Gc_cache.Iblp.create ~i ~b ~blocks () in
      let m = Gc_cache.Simulator.run ~check:false p trace in
      Printf.printf "%d,%d,%d,%d,%d\n" i b m.Gc_cache.Metrics.misses
        m.Gc_cache.Metrics.spatial_hits m.Gc_cache.Metrics.temporal_hits)
    (List.init (points + 1) (fun idx -> idx));
  Cli_common.ok

let k_arg = Arg.(value & opt int 1024 & info [ "k" ] ~doc:"Total cache size.")

let points_arg =
  Arg.(value & opt int 16 & info [ "points" ] ~doc:"Split grid points.")

let split_sweep_cmd =
  Cmd.v
    (Cmd.info "split-sweep" ~exits ~doc:"IBLP misses vs item/block split (CSV)")
    Term.(const split_sweep $ k_arg $ points_arg $ seed_arg $ path_arg)

(* --------------------------------------------------------------- h-sweep *)

let h_sweep policy k block_size construction cycles seed =
  let blocks = Gc_trace.Block_map.uniform ~block_size in
  print_endline "h,measured_ratio,bound";
  let hs = geometric_grid (max 2 (2 * block_size)) (k / 2) 8 in
  List.iter
    (fun h ->
      let p = Gc_cache.Registry.make policy ~k ~blocks ~seed in
      let c =
        match construction with
        | "st" -> Gc_cache.Attack.sleator_tarjan p ~k ~h ~cycles
        | "thm2" -> Gc_cache.Attack.item_cache p ~k ~h ~block_size ~cycles
        | "thm4" -> Gc_cache.Attack.general_a p ~k ~h ~block_size ~cycles
        | _ ->
            (assert false [@lint.allow "exit-contract"])
            (* the enum converter rejects anything else *)
      in
      Printf.printf "%d,%.4f,%.4f\n" h
        (Gc_trace.Adversary.measured_ratio c)
        c.Gc_trace.Adversary.bound)
    hs;
  Cli_common.ok

let policy_arg =
  Arg.(
    value
    & opt Cli_common.policy_conv "lru"
    & info [ "policy"; "p" ] ~doc:"Target policy.")

let block_size_arg =
  Arg.(value & opt int 16 & info [ "block-size"; "B" ] ~doc:"Items per block.")

let construction_arg =
  Arg.(
    value
    & opt (Cli_common.choice_conv [ "st"; "thm2"; "thm4" ]) "thm2"
    & info [ "construction"; "c" ] ~doc:"One of: st, thm2, thm4.")

let cycles_arg = Arg.(value & opt int 20 & info [ "cycles" ] ~doc:"Cycles.")

let h_sweep_cmd =
  Cmd.v
    (Cmd.info "h-sweep" ~exits
       ~doc:"Measured adversarial ratio vs offline size h (CSV)")
    Term.(
      const h_sweep $ policy_arg $ k_arg $ block_size_arg $ construction_arg
      $ cycles_arg $ seed_arg)

let () =
  let info =
    Cmd.info "gcexp" ~exits ~doc:"GC-caching experiment sweeps (CSV)"
  in
  exit
    (Cli_common.eval
       (Cmd.group info [ miss_curve_cmd; split_sweep_cmd; h_sweep_cmd ]))
