(* Cross-library integration tests: policies x workloads under the checked
   simulator, offline baselines dominating online ones, measured competitive
   ratios vs. the closed-form bounds, and the locality model against
   measured fault rates. *)

open Gc_trace
open Gc_cache

let rng () = Rng.create 4242

let policies = [ "lru"; "fifo"; "lfu"; "clock"; "plru"; "random"; "marking";
                 "block-lru"; "gcm"; "iblp"; "param-a:1"; "param-a:2";
                 "arc"; "2q"; "block-marking"; "iblp-adaptive"; "fwf";
                 "lru-k"; "s3-fifo"; "setassoc-lru"; "stride-prefetch" ]

let workloads seed =
  List.map
    (fun e -> (e.Gc_trace.Workload_suite.name, e.Gc_trace.Workload_suite.trace))
    (Gc_trace.Workload_suite.standard ~seed ())

let test_policy_workload_sweep () =
  (* Every policy on every workload, with model checking on: no violations
     and consistent counters. *)
  List.iter
    (fun (wname, trace) ->
      List.iter
        (fun pname ->
          let p = Registry.make pname ~k:256 ~blocks:trace.Trace.blocks ~seed:9 in
          let m = Simulator.run p trace in
          let label = Printf.sprintf "%s on %s" pname wname in
          Alcotest.(check int) (label ^ ": accesses") (Trace.length trace)
            m.Metrics.accesses;
          Alcotest.(check int)
            (label ^ ": hits+misses")
            m.Metrics.accesses
            (m.Metrics.hits + m.Metrics.misses);
          Alcotest.(check int)
            (label ^ ": hit split")
            m.Metrics.hits
            (m.Metrics.spatial_hits + m.Metrics.temporal_hits))
        policies)
    (workloads 1)

let test_offline_dominates_online () =
  List.iter
    (fun (wname, trace) ->
      let k = 256 in
      let belady = Gc_offline.Belady.(cost create ~k trace) in
      let block_belady = Gc_offline.Belady.(cost block ~k trace) in
      let clairvoyant = Gc_offline.Belady.(cost clairvoyant ~k trace) in
      (* Belady optimal among item caches. *)
      List.iter
        (fun name ->
          let p = Registry.make name ~k ~blocks:trace.Trace.blocks ~seed:3 in
          let online = Test_util.run_misses p trace in
          Alcotest.(check bool)
            (Printf.sprintf "belady <= %s on %s" name wname)
            true (belady <= online))
        [ "lru"; "fifo"; "lfu"; "clock" ];
      (* Block-Belady optimal among block caches. *)
      let bl = Registry.make "block-lru" ~k ~blocks:trace.Trace.blocks ~seed:3 in
      Alcotest.(check bool)
        (Printf.sprintf "block-belady <= block-lru on %s" wname)
        true
        (block_belady <= Test_util.run_misses bl trace);
      (* The GC-aware clairvoyant never does worse than the best
         single-granularity offline policy (it can always imitate it). *)
      Alcotest.(check bool)
        (Printf.sprintf "clairvoyant vs best single-granularity on %s" wname)
        true
        (float_of_int clairvoyant
        <= 1.05 *. float_of_int (min belady block_belady)))
    (workloads 2)

let test_iblp_measured_ratio_below_thm7 () =
  (* The Theorem-7 upper bound must dominate the measured ratio on the
     adversarial stress patterns (certified OPT in the denominator). *)
  let block_size = 16 in
  let i = 64 and b = 192 in
  let h = 12 in
  let bound =
    Gc_bounds.Iblp_upper.combined ~i:(float_of_int i) ~b:(float_of_int b)
      ~block_size:(float_of_int block_size) ~h:(float_of_int h)
  in
  let blocks = Block_map.uniform ~block_size in
  (* Spatial stress. *)
  let iblp = Iblp.create ~i ~b ~blocks () in
  let c =
    Attack.spatial_stress iblp ~h ~block_size ~t_load:8 ~spacing:(b / block_size)
      ~cycles:40
  in
  Alcotest.(check bool)
    (Printf.sprintf "spatial: measured %.2f <= thm7 %.2f"
       (Adversary.measured_ratio c) bound)
    true
    (Adversary.measured_ratio c <= bound +. 1e-9);
  (* Temporal stress (Sleator-Tarjan style, adaptive). *)
  let iblp2 = Iblp.create ~i ~b ~blocks () in
  let c2 = Attack.sleator_tarjan iblp2 ~k:(i + b) ~h ~cycles:40 in
  Alcotest.(check bool)
    (Printf.sprintf "temporal: measured %.2f <= thm7 %.2f"
       (Adversary.measured_ratio c2) bound)
    true
    (Adversary.measured_ratio c2 <= bound +. 1e-9)

let test_thm2_ratio_exceeds_sleator_tarjan () =
  (* The point of the paper's Theorem 2: in the GC model, the adversary
     hurts an Item Cache by ~B more than classical paging predicts. *)
  let k = 256 and h = 32 and block_size = 16 in
  let lru = Lru.create ~k in
  let c = Attack.item_cache lru ~k ~h ~block_size ~cycles:20 in
  let st = Gc_bounds.Sleator_tarjan.competitive_ratio ~k:(float_of_int k) ~h:(float_of_int h) in
  Alcotest.(check bool) "GC adversary ~8x worse than ST here" true
    (Adversary.measured_ratio c > 8. *. st)

let test_policy_family_ranking_on_spatial_traces () =
  (* On a spatially local workload the block-aware policies must beat the
     item-only ones decisively. *)
  let trace =
    Generators.spatial_mix (rng ()) ~n:40_000 ~universe:8192 ~block_size:16
      ~p_spatial:0.85
  in
  let misses name =
    Test_util.run_misses
      (Registry.make name ~k:512 ~blocks:trace.Trace.blocks ~seed:5)
      trace
  in
  let lru = misses "lru" and iblp = misses "iblp" and gcm = misses "gcm" in
  let marking = misses "marking" in
  Alcotest.(check bool) "iblp beats lru" true (iblp < lru);
  Alcotest.(check bool) "gcm beats marking" true (gcm < marking);
  Alcotest.(check bool) "substantial win" true
    (float_of_int iblp < 0.3 *. float_of_int lru)

let test_policy_family_ranking_on_temporal_traces () =
  (* With one hot item per block, whole-block caching wastes capacity. *)
  let trace =
    Generators.zipf_blocks (rng ()) ~n:40_000 ~blocks:2048 ~block_size:16
      ~alpha:0.7 ~within:`First
  in
  let misses name =
    Test_util.run_misses
      (Registry.make name ~k:512 ~blocks:trace.Trace.blocks ~seed:5)
      trace
  in
  Alcotest.(check bool) "lru beats block-lru" true
    (misses "lru" < misses "block-lru")

let test_fault_rate_vs_thm8_bound () =
  (* On the Theorem-8 family, any policy's measured fault rate must be at
     least (approximately) the theorem's lower bound for the locality pair
     used to build the trace. *)
  let module Thm8 = Gc_locality.Synthesis.Thm8 (Policy.Oracle) in
  let k = 48 in
  let f_inv m = m * m in
  let g n = max 1 (int_of_float (sqrt (float_of_int n)) / 4) in
  List.iter
    (fun name ->
      let p =
        Registry.make name ~k ~blocks:(Block_map.uniform ~block_size:16) ~seed:7
      in
      let r = Thm8.run p ~k ~f_inv ~g ~block_size:16 ~phases:8 in
      let measured =
        float_of_int r.Thm8.online_faults /. float_of_int r.Thm8.accesses
      in
      let bound = r.Thm8.bound_faults /. float_of_int r.Thm8.accesses in
      Alcotest.(check bool)
        (Printf.sprintf "%s: fault rate %.4f >= 0.8 * bound %.4f" name measured
           bound)
        true
        (measured >= 0.8 *. bound))
    [ "lru"; "iblp"; "block-lru" ]

let test_iblp_fault_rate_below_thm11 () =
  (* Measured IBLP fault rate on a power-law workload stays below the
     Theorem-11 bound evaluated with the locality functions fitted from the
     trace itself. *)
  let trace =
    Gc_locality.Synthesis.power_law (rng ()) ~n:50_000 ~p:2. ~rho:4.
      ~block_size:16
  in
  let i = 256 and b = 256 in
  let p = Iblp.create ~i ~b ~blocks:trace.Trace.blocks () in
  let m = Simulator.run p trace in
  let measured = Metrics.fault_rate m in
  (* Fit f from the measured profile (upper bounds are stated for the true
     f; the fitted one is close). *)
  let windows =
    List.filter (fun n -> n >= 64)
      (Gc_locality.Working_set.geometric_windows trace ~steps:16)
  in
  let fit_f =
    Gc_locality.Concave_fit.fit_power
      (List.map (fun (n, f, _) -> (n, f)) (Gc_locality.Working_set.profile trace ~windows))
  in
  let fit_g =
    Gc_locality.Concave_fit.fit_power
      (List.map (fun (n, _, g) -> (n, g)) (Gc_locality.Working_set.profile trace ~windows))
  in
  let f =
    Gc_bounds.Locality_fn.power ~coeff:fit_f.Gc_locality.Concave_fit.coeff
      ~p:fit_f.Gc_locality.Concave_fit.p ()
  in
  let g =
    Gc_bounds.Locality_fn.power ~coeff:fit_g.Gc_locality.Concave_fit.coeff
      ~p:fit_g.Gc_locality.Concave_fit.p ()
  in
  let bound =
    Gc_bounds.Fault_rate.iblp ~i:(float_of_int i) ~b:(float_of_int b)
      ~block_size:16. ~f ~g
  in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.4f <= bound %.4f" measured bound)
    true (measured <= bound)

let test_hierarchy_agrees_with_simulator () =
  (* The memory hierarchy is just a byte-address veneer over the simulator:
     running the line trace directly must give identical metrics. *)
  let geo = Gc_memhier.Geometry.create ~line_bytes:64 ~row_bytes:1024 in
  let addrs =
    Gc_memhier.Workloads.interleave
      (Gc_memhier.Workloads.sequential ~n:5000 ~start:0 ~step:64)
      (Gc_memhier.Workloads.pointer_chase (rng ()) ~n:5000 ~nodes:64
         ~node_bytes:1024 ~base:2_000_000)
  in
  let h =
    Gc_memhier.Hierarchy.create geo ~capacity_lines:128
      ~make_policy:(fun ~k ~blocks -> Registry.make "iblp" ~k ~blocks ~seed:13)
  in
  Gc_memhier.Hierarchy.run h addrs;
  let s = Gc_memhier.Hierarchy.stats h in
  let line_trace =
    Trace.make (Gc_memhier.Geometry.block_map geo)
      (Array.map (Gc_memhier.Geometry.line_of_addr geo) addrs)
  in
  let p = Registry.make "iblp" ~k:128 ~blocks:line_trace.Trace.blocks ~seed:13 in
  let m = Simulator.run p line_trace in
  Alcotest.(check int) "misses agree" m.Metrics.misses s.Gc_memhier.Hierarchy.misses;
  Alcotest.(check int) "hits agree" m.Metrics.hits s.Gc_memhier.Hierarchy.hits;
  Alcotest.(check int) "spatial hits agree" m.Metrics.spatial_hits
    s.Gc_memhier.Hierarchy.spatial_hits

let test_gcsim_run_artifacts () =
  (* Drive the real gcsim binary (a dune dep of this test) end to end:
     --json + --events + --histograms on a saved trace, then reconcile the
     manifest and the event stream against an independent in-process
     simulation with the same k and seed. *)
  let k = 128 and seed = 42 in
  let trace =
    Generators.spatial_mix (rng ()) ~n:4000 ~universe:1024 ~block_size:8
      ~p_spatial:0.6
  in
  let dir = Filename.temp_file "gcsim_obs" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let trace_path = Filename.concat dir "trace.gct" in
  let json_path = Filename.concat dir "out.json" in
  let events_path = Filename.concat dir "events.jsonl" in
  Trace_io.save trace_path trace;
  let cmd =
    Printf.sprintf
      "../bin/gcsim.exe run --all -k %d --seed %d --no-check --json %s \
       --events %s --histograms %s > /dev/null"
      k seed (Filename.quote json_path) (Filename.quote events_path)
      (Filename.quote trace_path)
  in
  Alcotest.(check int) "gcsim exits 0" 0 (Sys.command cmd);
  let open Gc_obs in
  let manifest = Test_util.parse_json_file json_path in
  let events = Test_util.parse_jsonl_file events_path in
  List.iter Sys.remove [ trace_path; json_path; events_path ];
  Sys.rmdir dir;
  let field obj name = Option.get (Json.member name obj) in
  Alcotest.(check int) "schema version" 1 (Json.get_int (field manifest "version"));
  Alcotest.(check string) "trace digest recorded" (Trace.digest trace)
    (Json.get_string (field (field manifest "trace") "digest"));
  let runs = Json.get_list (field manifest "runs") in
  Alcotest.(check (list string))
    "one manifest run per registry policy" Gc_cache.Registry.names
    (List.map (fun r -> Json.get_string (field r "policy")) runs);
  (* Per-policy event tallies from the JSONL stream. *)
  let tally = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      let key =
        ( Json.get_string (field ev "policy"),
          Json.get_string (field ev "ev") )
      in
      Hashtbl.replace tally key
        (1 + Option.value ~default:0 (Hashtbl.find_opt tally key)))
    events;
  let count policy kind =
    Option.value ~default:0 (Hashtbl.find_opt tally (policy, kind))
  in
  List.iter
    (fun run ->
      let policy = Json.get_string (field run "policy") in
      let metrics = field run "metrics" in
      let metric name = Json.get_int (field metrics name) in
      (* The manifest's counters equal an independent simulation's. *)
      let p = Gc_cache.Registry.make policy ~k ~blocks:trace.Trace.blocks ~seed in
      let m = Simulator.run ~check:false p trace in
      Alcotest.(check int) (policy ^ ": hits") m.Metrics.hits (metric "hits");
      Alcotest.(check int) (policy ^ ": misses") m.Metrics.misses
        (metric "misses");
      Alcotest.(check int)
        (policy ^ ": spatial hits")
        m.Metrics.spatial_hits
        (metric "spatial_hits");
      (* The event stream reconciles with the manifest per policy. *)
      Alcotest.(check int)
        (policy ^ ": one access event per request")
        (Trace.length trace) (count policy "access");
      Alcotest.(check int)
        (policy ^ ": hit events")
        m.Metrics.hits (count policy "hit");
      Alcotest.(check int)
        (policy ^ ": miss events = load events")
        (count policy "miss") (count policy "load");
      Alcotest.(check int)
        (policy ^ ": hits + misses = accesses")
        (count policy "access")
        (count policy "hit" + count policy "miss");
      Alcotest.(check int)
        (policy ^ ": evict events")
        m.Metrics.evictions (count policy "evict");
      (* And the manifest's own per-kind event counts agree with the
         stream. *)
      let manifest_events = field run "events" in
      List.iter
        (fun kind ->
          Alcotest.(check int)
            (Printf.sprintf "%s: manifest count for %s" policy kind)
            (count policy kind)
            (Json.get_int (field manifest_events kind)))
        Event.kind_names)
    runs

let test_trace_io_roundtrip_preserves_simulation () =
  let trace =
    Generators.spatial_mix (rng ()) ~n:10_000 ~universe:2048 ~block_size:8
      ~p_spatial:0.5
  in
  let round =
    Test_util.decoded (Trace_io.of_string_result (Trace_io.to_string trace))
  in
  List.iter
    (fun name ->
      let run t =
        Test_util.run_misses
          (Registry.make name ~k:128 ~blocks:t.Trace.blocks ~seed:21)
          t
      in
      Alcotest.(check int) (name ^ " misses preserved") (run trace) (run round))
    [ "lru"; "block-lru"; "iblp" ]

let () =
  Alcotest.run "integration"
    [
      ( "sweeps",
        [
          Alcotest.test_case "policies x workloads" `Slow test_policy_workload_sweep;
          Alcotest.test_case "offline dominates online" `Slow test_offline_dominates_online;
        ] );
      ( "bounds_vs_measured",
        [
          Alcotest.test_case "iblp ratio below thm7" `Quick test_iblp_measured_ratio_below_thm7;
          Alcotest.test_case "thm2 beats ST" `Quick test_thm2_ratio_exceeds_sleator_tarjan;
          Alcotest.test_case "fault rate above thm8" `Quick test_fault_rate_vs_thm8_bound;
          Alcotest.test_case "iblp fault rate below thm11" `Slow test_iblp_fault_rate_below_thm11;
        ] );
      ( "rankings",
        [
          Alcotest.test_case "spatial traces" `Quick test_policy_family_ranking_on_spatial_traces;
          Alcotest.test_case "temporal traces" `Quick test_policy_family_ranking_on_temporal_traces;
        ] );
      ( "cross_component",
        [
          Alcotest.test_case "hierarchy = simulator" `Quick test_hierarchy_agrees_with_simulator;
          Alcotest.test_case "io preserves simulation" `Quick test_trace_io_roundtrip_preserves_simulation;
          Alcotest.test_case "gcsim run artifacts" `Quick test_gcsim_run_artifacts;
        ] );
    ]
