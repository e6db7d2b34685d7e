(* The replay workload: in one thread, the calls `gcsim run --json` makes
   on a GCTB trace file, checked against independent oracles; plus the
   layer probe that splits a pass into decode, policy, simulator
   bookkeeping, shadow audit and manifest by subtraction on the same
   decoded trace. *)

open Util
module T = Gc_trace
module C = Gc_cache

(* lru-k is left out of the mix: at ~350 us/access it alone would be
   over 90% of a pass.  It is probed on a prefix instead. *)
let policies =
  [
    "lru"; "fifo"; "clock"; "fwf"; "lfu"; "arc"; "s3-fifo"; "setassoc-lru";
    "plru"; "block-lru"; "gcm"; "iblp"; "param-a:1";
  ]

let sideload_policies = [ "block-lru"; "gcm"; "iblp"; "param-a:1" ]
let k = 4096
let per_workload = 25_000
let universe = 65_536
let block_size = 16
let lru_k_prefix = 8192
let trace_path = out_path "replay.gctb"
let manifest_path = out_path "replay-manifest.json"

(* How far the layer sum may sit from the untraced pass time.  The two
   are measured a few seconds apart, and on a shared host CPU-bound work
   drifts by up to ~15% over that span; a missing layer would be off by
   a third or more. *)
let replay_tolerance = 0.20

(* Metric names may not hold ':'. *)
let key p = String.map (fun c -> if c = ':' then '-' else c) p

(* The eight standard suite traces, concatenated. *)
let generate ~seed =
  T.Workload_suite.standard ~seed ~n:per_workload ~universe ~block_size ()
  |> List.map (fun e -> e.T.Workload_suite.trace)
  |> T.Trace.concat

let load () =
  match T.Trace_io.load_binary_result trace_path with
  | Ok t -> t
  | Error e -> failwith (trace_path ^ ": " ^ T.Trace_io.string_of_error e)

let make ~seed trace p =
  C.Registry.make p ~k ~blocks:trace.T.Trace.blocks ~seed

(* What a user waits for before the first simulated access: the first
   decode of the file and the construction of every policy. *)
let setup ~seed =
  timed (fun () ->
      let trace = load () in
      List.iter (fun p -> ignore (make ~seed trace p)) policies;
      trace)

(* ------------------------------------------------------------- checking *)

type oracle = { lru_misses : int; block_lru_misses : int }

(* Mattson stack distances: an LRU cache of k items, and Block-LRU as
   an LRU cache of k/B blocks. *)
let oracle trace =
  {
    lru_misses = T.Stats.lru_misses_at (T.Stats.stack_distances trace) k;
    block_lru_misses =
      T.Stats.lru_misses_at (T.Stats.block_stack_distances trace) (k / block_size);
  }

let identities c ~what ~accesses (m : C.Metrics.t) =
  check c (m.accesses = accesses) "%s: accesses %d, expected %d" what m.accesses
    accesses;
  check c (m.hits + m.misses = m.accesses) "%s: hits %d + misses %d <> accesses %d"
    what m.hits m.misses m.accesses;
  check c
    (m.spatial_hits + m.temporal_hits = m.hits)
    "%s: spatial %d + temporal %d <> hits %d" what m.spatial_hits m.temporal_hits
    m.hits;
  check c (m.items_loaded >= m.misses) "%s: items_loaded %d < misses %d" what
    m.items_loaded m.misses

let check_oracle c ~what oracle p misses =
  let expect =
    match p with
    | "lru" -> Some oracle.lru_misses
    | "block-lru" -> Some oracle.block_lru_misses
    | _ -> None
  in
  Option.iter
    (fun e -> check c (misses = e) "%s: %d misses, stack-distance oracle says %d" what misses e)
    expect

(* ---------------------------------------------------------------- probe *)

(* One policy measured three ways on fresh instances: the bare
   [Policy.access] loop, [Simulator.run ~check:false] and, when
   [audited], [Simulator.run ~check:true]. *)
type probe = {
  raw_ns : int;
  raw_words : float;
  raw_hits : int;
  raw_misses : int;
  fast_ns : int;
  fast_words : float;
  fast : C.Metrics.t;
  audited : (int * float * C.Metrics.t) option;
}

let access_loop pol (trace : T.Trace.t) =
  let hits = ref 0 and misses = ref 0 in
  Array.iter
    (fun item ->
      match C.Policy.access pol item with
      | C.Policy.Hit _ -> incr hits
      | C.Policy.Miss _ -> incr misses)
    trace.T.Trace.requests;
  (!hits, !misses)

let probe ~seed ~audited trace p =
  let pol = make ~seed trace p in
  let (raw_hits, raw_misses), raw_ns, raw_words =
    measured (fun () -> access_loop pol trace)
  in
  let pol = make ~seed trace p in
  let fast, fast_ns, fast_words =
    measured (fun () -> C.Simulator.run ~check:false pol trace)
  in
  let audited =
    if not audited then None
    else
      let pol = make ~seed trace p in
      let m, ns, words = measured (fun () -> C.Simulator.run ~check:true pol trace) in
      Some (ns, words, m)
  in
  { raw_ns; raw_words; raw_hits; raw_misses; fast_ns; fast_words; fast; audited }

(* ----------------------------------------------------------------- pass *)

type pass = {
  wall_ns : int;
  decode_ns : int;
  manifest_ns : int;
  runs : (string * (C.Obs_run.result, C.Obs_run.failure) Stdlib.result) list;
  run_ns : (string * int) list;  (* per policy, in pass order *)
}

let write_manifest ~seed ~wall_ns trace outcomes =
  let m =
    C.Obs_run.manifest_of_outcomes ~tool:"gcsim" ~command:"run" ~seed ~k
      ~trace:(C.Obs_run.trace_info ~path:trace_path trace)
      ~wall_time_s:(Gc_prof.Clock.s_of_ns wall_ns) outcomes
  in
  Gc_obs.Export.write_json_atomic manifest_path (Gc_obs.Manifest.to_json m)

(* One `gcsim run --json -k 4096` over the file, timed from decode
   through the written manifest. *)
let pass ~seed order =
  Gc_prof.Span.with_ "replay.pass" (fun () ->
      let t0 = now_ns () in
      let trace, decode_ns = timed (fun () -> Gc_prof.Span.with_ "trace_io.load_binary_result" load) in
      let timed_runs =
        List.map
          (fun p ->
            ( p,
              timed (fun () ->
                  Gc_prof.Span.with_ ~args:[ ("policy", p) ] "obs_run.run_policy_result"
                    (fun () -> C.Obs_run.run_policy_result ~check:true ~k ~seed p trace)) ))
          order
      in
      let runs = List.map (fun (p, (r, _)) -> (p, r)) timed_runs in
      let (), manifest_ns =
        timed (fun () ->
            Gc_prof.Span.with_ "obs_run.manifest" (fun () ->
                write_manifest ~seed ~wall_ns:(now_ns () - t0) trace (List.map snd runs)))
      in
      {
        wall_ns = now_ns () - t0;
        decode_ns;
        manifest_ns;
        runs;
        run_ns = List.map (fun (p, (_, ns)) -> (p, ns)) timed_runs;
      })

(* Every policy run of a pass is one operation: it must succeed, satisfy
   the counter identities, match the stack-distance oracles, agree with
   the probe's unaudited paths, and (default seed) match the fixture. *)
let check_pass c ~oracle ~accesses ~probes ~fixture pass =
  List.iter
    (fun (p, outcome) ->
      op c (fun () ->
          let what = "replay " ^ p in
          match outcome with
          | Error (f : C.Obs_run.failure) ->
              check c false "%s: %s: %s" what f.kind f.message
          | Ok (r : C.Obs_run.result) ->
              let m = r.metrics in
              identities c ~what ~accesses m;
              check_oracle c ~what oracle p m.misses;
              (match List.assoc_opt p probes with
              | None -> ()
              | Some pr ->
                  check c
                    (pr.raw_hits = m.hits && pr.raw_misses = m.misses)
                    "%s: raw loop %d hits / %d misses, audited run %d / %d" what
                    pr.raw_hits pr.raw_misses m.hits m.misses;
                  check c
                    (C.Metrics.fields pr.fast = C.Metrics.fields m)
                    "%s: check:false metrics %s <> check:true %s" what
                    (C.Metrics.to_row pr.fast) (C.Metrics.to_row m));
              match fixture with
              | None -> ()
              | Some fx ->
                  let got = List.map snd (C.Metrics.fields m) in
                  check c
                    (List.assoc_opt p fx = Some got)
                    "%s: metrics drifted from the default-seed fixture; now (%S, [ %s ])"
                    what p
                    (String.concat "; " (List.map string_of_int got))))
    pass.runs

(* ------------------------------------------------------------ the runs *)

type prepared = {
  trace : T.Trace.t;
  setup_s : float;
  oracle : oracle;
  accesses : int;
  next_order : unit -> string list;
  orders : string list list ref;
}

let prepare c ~seed =
  ensure_out_dir ();
  let generated = generate ~seed in
  T.Trace_io.save_binary trace_path generated;
  let digest = T.Trace.digest generated in
  Printf.printf "input replay: %d accesses, %s\n%!" (T.Trace.length generated) digest;
  if seed = Pinned.default_seed then
    run_check c (digest = Pinned.replay_digest)
      "replay trace digest %s drifted from pinned %s" digest Pinned.replay_digest;
  let setups = List.init 3 (fun _ -> setup ~seed) in
  let trace = fst (List.hd setups) in
  let rng = T.Rng.create seed in
  let orders = ref [] in
  let next_order () =
    let a = Array.of_list policies in
    T.Rng.shuffle rng a;
    let o = Array.to_list a in
    orders := o :: !orders;
    o
  in
  {
    trace;
    setup_s = median (List.map (fun (_, ns) -> Gc_prof.Clock.s_of_ns ns) setups);
    oracle = oracle trace;
    accesses = T.Trace.length trace;
    next_order;
    orders;
  }

let fixture ~seed = if seed = Pinned.default_seed then Some Pinned.replay_fixture else None

(* Machine noise on the shared 2-core host is time-correlated, so the
   work rate uses the median of each part over the passes (decode, each
   policy run, manifest) rather than the median of whole passes. *)
let pass_metrics pr passes ~elapsed_ns =
  let walls = List.map (fun p -> Gc_prof.Clock.s_of_ns p.wall_ns) passes in
  let n = List.length passes in
  let med f = median (List.map (fun p -> float_of_int (f p)) passes) in
  let parts_ns =
    med (fun p -> p.decode_ns)
    +. sum (List.map (fun q -> med (fun p -> List.assoc q p.run_ns)) policies)
    +. med (fun p -> p.manifest_ns)
  in
  let runs = n * List.length policies in
  [
    metric "accesses_per_s" "1/s"
      (float_of_int (pr.accesses * List.length policies) /. (parts_ns /. 1e9))
      ~note:(Printf.sprintf "per-part medians over %d passes" n);
    metric "latency_p50_ms" "ms" (1000. *. median walls)
      ~note:(Printf.sprintf "pass wall time, n=%d" n);
    metric "throughput_rps" "1/s"
      (float_of_int runs /. Gc_prof.Clock.s_of_ns elapsed_ns)
      ~note:(Printf.sprintf "%d policy runs" runs);
  ]

(* Untraced: the (b) reference paths double as the warm-up, then timed
   passes, in shuffled policy order, until [seconds] have elapsed. *)
let run c ~seed ~seconds =
  let pr = prepare c ~seed in
  (* The warm-up runs in registry order, so that every run shapes its
     heap the same way and peak RSS does not depend on the shuffle. *)
  let probes = List.map (fun p -> (p, probe ~seed ~audited:false pr.trace p)) policies in
  let t0 = now_ns () in
  let passes = ref [] in
  while !passes = [] || now_ns () - t0 < Gc_prof.Clock.ns_of_s seconds do
    passes := pass ~seed (pr.next_order ()) :: !passes
  done;
  let elapsed_ns = now_ns () - t0 in
  let passes = List.rev !passes in
  List.iteri
    (fun i p ->
      Printf.printf "pass %d: %.3f s (decode %.1f ms, manifest %.1f ms;%s)\n" i
        (Gc_prof.Clock.s_of_ns p.wall_ns)
        (float_of_int p.decode_ns /. 1e6)
        (float_of_int p.manifest_ns /. 1e6)
        (String.concat ""
           (List.map (fun (q, ns) -> Printf.sprintf " %s %.0f ms" q (float_of_int ns /. 1e6)) p.run_ns)))
    passes;
  List.iter
    (check_pass c ~oracle:pr.oracle ~accesses:pr.accesses ~probes
       ~fixture:(fixture ~seed))
    passes;
  List.iteri
    (fun i o -> Printf.printf "order %d: %s\n" i (String.concat " " o))
    (List.rev !(pr.orders));
  [ metric "setup_s" "s" pr.setup_s ~note:"median of 3 set-ups" ]
  @ pass_metrics pr passes ~elapsed_ns
  @ [ metric "peak_rss_mb" "MiB" (peak_rss_mb ~pid:"self") ]

(* The layer probe every traced run reports: subtraction per policy on
   the decoded trace, lru-k on a prefix, decode and manifest costs. *)
let layer_metrics c pr ~seed =
  let probes =
    List.map (fun p -> (p, probe ~seed ~audited:true pr.trace p)) (pr.next_order ())
  in
  let n = float_of_int pr.accesses in
  let per_access x = x /. n in
  let policy_rows =
    List.concat_map
      (fun p ->
        let r = List.assoc p probes in
        [
          metric ("policy." ^ key p ^ ".ns_per_access") "ns" (per_access (float_of_int r.raw_ns));
          metric ("policy." ^ key p ^ ".minor_words_per_access") "words" (per_access r.raw_words);
        ])
      policies
  in
  let lru_k =
    let prefix = T.Trace.sub pr.trace ~pos:0 ~len:lru_k_prefix in
    let pol = make ~seed prefix "lru-k" in
    let _, ns, words = measured (fun () -> access_loop pol prefix) in
    let per x = x /. float_of_int lru_k_prefix in
    [
      metric "policy.lru-k.ns_per_access" "ns" (per (float_of_int ns))
        ~note:(Printf.sprintf "first %d accesses" lru_k_prefix);
      metric "policy.lru-k.minor_words_per_access" "words" (per words)
        ~note:(Printf.sprintf "first %d accesses" lru_k_prefix);
    ]
  in
  let audited p = Option.get (List.assoc p probes).audited in
  let sideload =
    List.map
      (fun p ->
        let _, _, (m : C.Metrics.t) = audited p in
        metric ("policy." ^ key p ^ ".sideload_use_ratio") "ratio"
          (float_of_int m.spatial_hits /. float_of_int (m.items_loaded - m.misses)))
      sideload_policies
  in
  List.iter
    (fun (p, r) ->
      op c (fun () ->
          let _, _, m = audited p in
          check c
            (r.raw_hits = m.hits && r.raw_misses = m.misses
            && C.Metrics.fields r.fast = C.Metrics.fields m)
            "replay %s: probe paths disagree" p))
    probes;
  let total f = sum (List.map (fun (p, r) -> f p r) probes) in
  let per_run x = x /. (n *. float_of_int (List.length probes)) in
  let bookkeeping_ns = total (fun _ r -> float_of_int (r.fast_ns - r.raw_ns)) in
  let audit_ns = total (fun p r -> let ns, _, _ = audited p in float_of_int (ns - r.fast_ns)) in
  let checked_ns = total (fun p _ -> let ns, _, _ = audited p in float_of_int ns) in
  let decode_ns =
    median (List.init 3 (fun _ -> float_of_int (snd (timed load))))
  in
  let results =
    List.map
      (fun p ->
        let _, _, metrics = audited p in
        Ok { C.Obs_run.policy = p; metrics; registry = None; events = [] })
      policies
  in
  let (), manifest_ns = timed (fun () -> write_manifest ~seed ~wall_ns:0 pr.trace results) in
  ( decode_ns +. checked_ns +. float_of_int manifest_ns,
    policy_rows @ lru_k @ sideload
    @ [
        metric "simulator.bookkeeping_ns_per_access" "ns" (per_run bookkeeping_ns);
        metric "simulator.bookkeeping_minor_words_per_access" "words"
          (per_run (total (fun _ r -> r.fast_words -. r.raw_words)));
        metric "simulator.audit_ns_per_access" "ns" (per_run audit_ns);
        metric "simulator.audit_minor_words_per_access" "words"
          (per_run (total (fun p r -> let _, w, _ = audited p in w -. r.fast_words)));
        metric "trace_io.decode_ns_per_access" "ns" (decode_ns /. n);
        metric "trace_io.bytes_per_access" "bytes"
          (float_of_int (Unix.stat trace_path).Unix.st_size /. n);
        metric "obs_run.manifest_ms" "ms" (float_of_int manifest_ns /. 1e6);
      ] )

(* Every traced run measures the replay layers, whatever its workload. *)
let traced_layers c ~seed =
  let pr = prepare c ~seed in
  snd (layer_metrics c pr ~seed)

(* The replay workload's own traced run: layer probe (also the warm-up),
   one untraced pass, then one pass under tracing.  The caller has not
   started the tracer yet and starts it through [start_tracing]. *)
let traced c ~seed ~start_tracing =
  let pr = prepare c ~seed in
  let layers_ns, layer_rows = layer_metrics c pr ~seed in
  let check_one =
    check_pass c ~oracle:pr.oracle ~accesses:pr.accesses ~probes:[] ~fixture:(fixture ~seed)
  in
  let plain = pass ~seed (pr.next_order ()) in
  check_one plain;
  start_tracing ();
  let tr = pass ~seed (pr.next_order ()) in
  check_one tr;
  let share = layers_ns /. float_of_int plain.wall_ns in
  Printf.printf
    "reconcile replay: decode + raw + bookkeeping + audit + manifest = %.1f ms vs untraced \
     pass %.1f ms (ratio %.3f, tolerance +/-%.0f%%)\n"
    (layers_ns /. 1e6) (float_of_int plain.wall_ns /. 1e6) share (100. *. replay_tolerance);
  run_check c
    (Float.abs (share -. 1.) <= replay_tolerance)
    "replay layer sum is %.3f of the untraced pass" share;
  layer_rows
  @ [
      metric "tracing_overhead_ratio" "ratio"
        (float_of_int tr.wall_ns /. float_of_int plain.wall_ns)
        ~note:"traced / untraced pass wall time";
    ]
