open Gc_trace
open Gc_offline

let rng () = Rng.create 2024

(* ------------------------------------------------------------- Next_use *)

(* [at] for every position; then [after] for every item of the trace and
   one it never requests, at positions rising per item by a stride of 1,
   2 or 3, so a cursor sometimes passes several uses in one call. *)
let qcheck_next_use =
  Test_util.qcheck ~count:200 "next_use matches brute force"
    (Test_util.small_trace_arbitrary ())
    (fun (bs, reqs) ->
      let trace = Test_util.trace_of (bs, reqs) in
      let nu = Next_use.of_trace trace in
      let n = Array.length reqs in
      let rec first_from item p =
        if p >= n then Next_use.never
        else if reqs.(p) = item then p
        else first_from item (p + 1)
      in
      let ok = ref true in
      for pos = 0 to n - 1 do
        if Next_use.at nu pos <> first_from reqs.(pos) (pos + 1) then ok := false
      done;
      let items = Array.fold_left max 0 reqs + 1 :: Array.to_list reqs |> List.sort_uniq compare in
      for pos = 0 to n do
        List.iter
          (fun item ->
            if pos mod (1 + (item mod 3)) = 0 then
              if Next_use.after nu ~pos ~item <> first_from item pos then ok := false)
          items
      done;
      !ok)

let test_next_use_after () =
  let trace = Test_util.trace_of (1, [| 3; 1; 3; 2; 1 |]) in
  let nu = Next_use.of_trace trace in
  Alcotest.(check int) "after 0 item 3" 0 (Next_use.after nu ~pos:0 ~item:3);
  Alcotest.(check int) "after 1 item 3" 2 (Next_use.after nu ~pos:1 ~item:3);
  Alcotest.(check int) "after 3 item 3" Next_use.never
    (Next_use.after nu ~pos:3 ~item:3);
  Alcotest.(check int) "never seen" Next_use.never
    (Next_use.after nu ~pos:0 ~item:42)

(* --------------------------------------------------------------- Belady *)

let qcheck_belady_beats_online_item_policies =
  Test_util.qcheck ~count:200 "Belady <= every online item policy"
    (QCheck.pair (Test_util.small_trace_arbitrary ()) QCheck.(int_range 1 6))
    (fun ((bs, reqs), k) ->
      let trace = Test_util.trace_of (bs, reqs) in
      let opt = Belady.(cost create ~k trace) in
      List.for_all
        (fun make ->
          opt <= Test_util.run_misses (make ()) trace)
        [
          (fun () -> Gc_cache.Lru.create ~k);
          (fun () -> Gc_cache.Fifo.create ~k);
          (fun () -> Gc_cache.Lfu.create ~k);
          (fun () -> Gc_cache.Clock.create ~k);
          (fun () -> Gc_cache.Random_evict.create ~k ~rng:(rng ()));
        ])

let qcheck_belady_equals_exact_when_b1 =
  Test_util.qcheck ~count:100 "Belady = exact optimum at B = 1"
    (QCheck.pair
       (Test_util.small_trace_arbitrary ~max_universe:8 ~max_len:18 ())
       QCheck.(int_range 1 5))
    (fun ((_, reqs), k) ->
      let trace = Test_util.trace_of (1, reqs) in
      Belady.(cost create ~k trace) = Exact_gc.solve ~k trace)

let test_belady_wrong_trace_rejected () =
  let trace = Test_util.trace_of (1, [| 1; 2; 3 |]) in
  let p = Belady.create ~k:2 trace in
  ignore (Gc_cache.Policy.access p 1);
  match Gc_cache.Policy.access p 3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted out-of-order request"

(* --------------------------------------------------------- Belady.block *)

let qcheck_block_belady_beats_block_lru =
  Test_util.qcheck ~count:200 "Block-Belady <= Block-LRU"
    (QCheck.pair (Test_util.small_trace_arbitrary ()) QCheck.(int_range 1 4))
    (fun ((bs, reqs), kb) ->
      let k = kb * bs in
      let trace = Test_util.trace_of (bs, reqs) in
      Belady.(cost block ~k trace)
      <= Test_util.run_misses
           (Gc_cache.Block_lru.create ~k ~blocks:trace.Trace.blocks)
           trace)

let test_block_belady_scan () =
  (* Scanning blocks sequentially: exactly one miss per block visit. *)
  let trace = Generators.block_scan ~n_blocks:6 ~repeats:2 ~block_size:4 in
  Alcotest.(check int) "one miss per block" 6 (Belady.(cost block ~k:8 trace))

(* ---------------------------------------------------- Belady.clairvoyant *)

let qcheck_exact_at_most_clairvoyant =
  Test_util.qcheck ~count:120 "exact <= clairvoyant <= belady"
    (QCheck.pair
       (Test_util.small_trace_arbitrary ~max_universe:9 ~max_len:22 ())
       QCheck.(int_range 1 5))
    (fun ((bs, reqs), k) ->
      let trace = Test_util.trace_of (bs, reqs) in
      let exact = Exact_gc.solve ~k trace in
      let clair = Belady.(cost clairvoyant ~k trace) in
      exact <= clair && clair <= Belady.(cost create ~k trace))

let test_clairvoyant_loads_useful_siblings () =
  (* 0,1,2,3 all used soon: the first miss should take the whole block. *)
  let trace = Test_util.trace_of (4, [| 0; 1; 2; 3 |]) in
  Alcotest.(check int) "one miss" 1 (Belady.(cost clairvoyant ~k:8 trace))

let test_clairvoyant_skips_useless_siblings () =
  (* Siblings never reused: loading them would evict the useful item 9. *)
  let trace = Test_util.trace_of (4, [| 9; 0; 9 |]) in
  (* k = 2: after 9 and 0 the cache is full; clairvoyant must not load 0's
     siblings over 9. *)
  Alcotest.(check int) "keeps the useful item" 2 (Belady.(cost clairvoyant ~k:2 trace))

let test_clairvoyant_gap_statistics () =
  (* Offline GC caching is NP-complete, so the clairvoyant heuristic cannot
     be optimal; measure how far it strays on random small instances.  The
     specific ceiling matters less than having a tripwire if a refactor
     degrades it. *)
  let rng = Rng.create 2718 in
  let worst = ref 1.0 in
  let total_exact = ref 0 and total_clair = ref 0 in
  for _ = 1 to 200 do
    let bs = 1 + Rng.int rng 3 in
    let universe = 2 + Rng.int rng 8 in
    let n = 6 + Rng.int rng 16 in
    let requests = Array.init n (fun _ -> Rng.int rng universe) in
    let trace = Trace.make (Block_map.uniform ~block_size:bs) requests in
    let k = max bs (1 + Rng.int rng 5) in
    let exact = Exact_gc.solve ~k trace in
    let clair = Belady.(cost clairvoyant ~k trace) in
    total_exact := !total_exact + exact;
    total_clair := !total_clair + clair;
    if exact > 0 then
      worst := Float.max !worst (float_of_int clair /. float_of_int exact)
  done;
  let aggregate = float_of_int !total_clair /. float_of_int !total_exact in
  Alcotest.(check bool)
    (Printf.sprintf "aggregate gap %.3f <= 1.05" aggregate)
    true (aggregate <= 1.05);
  Alcotest.(check bool)
    (Printf.sprintf "worst instance gap %.3f <= 1.5" !worst)
    true (!worst <= 1.5)

(* --------------------------------------------------------------- Exact_gc *)

let test_exact_simple_cases () =
  (* Everything fits: only cold block misses. *)
  let trace = Test_util.trace_of (2, [| 0; 1; 2; 3; 0; 1; 2; 3 |]) in
  Alcotest.(check int) "fits" 2 (Exact_gc.solve ~k:4 trace);
  (* One slot: every distinct consecutive access misses. *)
  let trace2 = Test_util.trace_of (1, [| 0; 1; 0; 1 |]) in
  Alcotest.(check int) "thrash" 4 (Exact_gc.solve ~k:1 trace2);
  (* Spatial locality: one block streamed twice, cache holds it. *)
  let trace3 = Test_util.trace_of (3, [| 0; 1; 2; 0; 1; 2 |]) in
  Alcotest.(check int) "one load" 1 (Exact_gc.solve ~k:3 trace3)

let qcheck_exact_monotone_in_k =
  Test_util.qcheck ~count:100 "exact optimum monotone in k"
    (QCheck.pair
       (Test_util.small_trace_arbitrary ~max_universe:8 ~max_len:18 ())
       QCheck.(int_range 1 4))
    (fun ((bs, reqs), k) ->
      let trace = Test_util.trace_of (bs, reqs) in
      Exact_gc.solve ~k:(k + 1) trace <= Exact_gc.solve ~k trace)

let qcheck_exact_lower_bounds_online =
  Test_util.qcheck ~count:80 "exact <= every online policy"
    (QCheck.pair
       (Test_util.small_trace_arbitrary ~max_universe:8 ~max_len:20 ())
       QCheck.(int_range 1 3))
    (fun ((bs, reqs), kb) ->
      let k = kb * bs in
      let trace = Test_util.trace_of (bs, reqs) in
      let exact = Exact_gc.solve ~k trace in
      List.for_all
        (fun name ->
          let p = Gc_cache.Registry.make name ~k ~blocks:trace.Trace.blocks ~seed:1 in
          exact <= Test_util.run_misses p trace)
        [ "lru"; "block-lru"; "gcm"; "iblp"; "param-a:1"; "marking" ])

let test_exact_at_least_distinct_blocks =
  Test_util.qcheck ~count:100 "exact >= compulsory block misses"
    (Test_util.small_trace_arbitrary ~max_universe:8 ~max_len:20 ())
    (fun (bs, reqs) ->
      let trace = Test_util.trace_of (bs, reqs) in
      Exact_gc.solve ~k:8 trace >= Trace.distinct_blocks trace)

let qcheck_solve_schedule_is_valid_and_optimal =
  Test_util.qcheck ~count:120 "reconstructed schedule is feasible and optimal"
    (QCheck.pair
       (Test_util.small_trace_arbitrary ~max_universe:8 ~max_len:20 ())
       QCheck.(int_range 1 5))
    (fun ((bs, reqs), k) ->
      let trace = Test_util.trace_of (bs, reqs) in
      let cost, schedule = Exact_gc.solve_schedule ~k trace in
      cost = Exact_gc.solve ~k trace
      &&
      match Schedule.check trace ~capacity:k schedule with
      | Ok misses -> misses = cost
      | Error _ -> false)

(* --------------------------------------------------------------- Varsize *)

let test_varsize_hand_instance () =
  (* Two size-2 items and one size-1, capacity 3: can hold one big + small. *)
  let inst =
    { Varsize.sizes = [| 2; 2; 1 |]; capacity = 3; requests = [| 0; 1; 2; 0; 1; 2 |] }
  in
  (* Each of 0 and 1 must be reloaded on every request (they cannot
     coexist); 2 can stay: 4 + cold miss on 2 = 5. *)
  Alcotest.(check int) "optimal" 5 (Varsize.exact inst)

let test_varsize_fits () =
  let inst =
    { Varsize.sizes = [| 1; 2 |]; capacity = 3; requests = [| 0; 1; 0; 1 |] }
  in
  Alcotest.(check int) "cold only" 2 (Varsize.exact inst)

let test_varsize_validation () =
  (match
     Varsize.validate
       { Varsize.sizes = [| 5 |]; capacity = 3; requests = [| 0 |] }
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized item accepted");
  match
    Varsize.validate { Varsize.sizes = [| 1 |]; capacity = 3; requests = [| 7 |] }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range request accepted"

(* -------------------------------------------------------------- Reduction *)

let qcheck_reduction_preserves_optimum =
  Test_util.qcheck ~count:25 "Theorem 1 reduction preserves optimal cost"
    QCheck.(
      make
        ~print:(fun (seed, n_items, cap, len) ->
          Printf.sprintf "seed=%d items=%d cap=%d len=%d" seed n_items cap len)
        Gen.(
          let* seed = int_range 0 10_000 in
          let* n_items = int_range 1 3 in
          let* cap = int_range 2 4 in
          let* len = int_range 1 6 in
          return (seed, n_items, cap, len)))
    (fun (seed, n_items, cap, len) ->
      let inst =
        Varsize.random_instance (Rng.create seed) ~n_items ~max_size:3
          ~capacity:cap ~length:len
      in
      match Reduction.verify inst with Ok _ -> true | Error _ -> false)

let test_reduction_structure () =
  let inst =
    { Varsize.sizes = [| 2; 3 |]; capacity = 3; requests = [| 0; 1 |] }
  in
  let r = Reduction.reduce inst in
  (* Item 0 (size 2) -> 2*2 accesses; item 1 (size 3) -> 3*3. *)
  Alcotest.(check int) "trace length" (4 + 9) (Trace.length r.Reduction.trace);
  Alcotest.(check int) "capacity" 3 r.Reduction.capacity;
  Alcotest.(check int) "active sets" 2 (Array.length r.Reduction.active_sets);
  Alcotest.(check int) "sizes" 3 (Array.length r.Reduction.active_sets.(1));
  (* Active sets are disjoint blocks. *)
  let blocks = r.Reduction.trace.Trace.blocks in
  Alcotest.(check bool) "same block within set" true
    (Block_map.same_block blocks r.Reduction.active_sets.(1).(0)
       r.Reduction.active_sets.(1).(2));
  Alcotest.(check bool) "different blocks across sets" false
    (Block_map.same_block blocks r.Reduction.active_sets.(0).(0)
       r.Reduction.active_sets.(1).(0))

(* -------------------------------------------------------------- Schedule *)

let test_schedule_record_and_check () =
  let trace =
    Generators.uniform_random (rng ()) ~n:500 ~universe:40 ~block_size:4
  in
  let p = Gc_cache.Lru.create ~k:10 in
  let sched, metrics = Schedule.record p trace in
  Alcotest.(check int) "cost = misses" metrics.Gc_cache.Metrics.misses
    (Schedule.cost sched);
  match Schedule.check trace ~capacity:10 sched with
  | Ok misses -> Alcotest.(check int) "replay agrees" metrics.Gc_cache.Metrics.misses misses
  | Error e -> Alcotest.failf "valid schedule rejected: %s" e

let test_schedule_check_catches_violations () =
  let trace = Test_util.trace_of (2, [| 0; 1; 2 |]) in
  (* Missing load. *)
  let bad1 = [| { Schedule.load = []; evict = [] };
                { Schedule.load = [ 1 ]; evict = [] };
                { Schedule.load = [ 2 ]; evict = [] } |] in
  (match Schedule.check trace ~capacity:4 bad1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing load accepted");
  (* Foreign-block load. *)
  let bad2 = [| { Schedule.load = [ 0; 2 ]; evict = [] };
                { Schedule.load = [ 1 ]; evict = [] };
                { Schedule.load = [] ; evict = [] } |] in
  (match Schedule.check trace ~capacity:4 bad2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign load accepted");
  (* Over capacity. *)
  let bad3 = [| { Schedule.load = [ 0; 1 ]; evict = [] };
                { Schedule.load = [] ; evict = [] };
                { Schedule.load = [ 2; 3 ]; evict = [] } |] in
  (match Schedule.check trace ~capacity:3 bad3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "over capacity accepted");
  (* Evicting an uncached item. *)
  let bad4 = [| { Schedule.load = [ 0 ]; evict = [ 5 ] };
                { Schedule.load = [ 1 ]; evict = [] };
                { Schedule.load = [ 2 ]; evict = [] } |] in
  match Schedule.check trace ~capacity:4 bad4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "phantom evict accepted"

let test_schedule_valid_hand_built () =
  let trace = Test_util.trace_of (2, [| 0; 1; 0; 2 |]) in
  let s = [| { Schedule.load = [ 0; 1 ]; evict = [] };
             { Schedule.load = []; evict = [] };
             { Schedule.load = []; evict = [] };
             { Schedule.load = [ 2 ]; evict = [ 1 ] } |] in
  match Schedule.check trace ~capacity:2 s with
  | Ok misses -> Alcotest.(check int) "two misses" 2 misses
  | Error e -> Alcotest.failf "rejected: %s" e

let test_schedule_of_layered_policy_checks () =
  (* IBLP holds duplicates internally but its externally visible cache
     content is a set; its recorded schedule must replay cleanly at
     capacity k. *)
  let trace =
    Generators.spatial_mix (rng ()) ~n:5_000 ~universe:1024 ~block_size:8
      ~p_spatial:0.6
  in
  let p = Gc_cache.Iblp.create ~i:64 ~b:64 ~blocks:trace.Trace.blocks () in
  let sched, metrics = Schedule.record p trace in
  match Schedule.check trace ~capacity:128 sched with
  | Ok misses ->
      Alcotest.(check int) "misses agree" metrics.Gc_cache.Metrics.misses misses
  | Error e -> Alcotest.failf "IBLP schedule rejected: %s" e

let test_belady_known_value () =
  (* Cyclic scan of k+1 items: LRU misses everything, Belady keeps k-1 of
     them and misses only on the rotating gap. *)
  let k = 4 in
  let trace = Generators.sequential ~n:50 ~universe:(k + 1) ~block_size:1 in
  let lru = Test_util.run_misses (Gc_cache.Lru.create ~k) trace in
  Alcotest.(check int) "lru thrashes" 50 lru;
  let belady = Belady.(cost create ~k trace) in
  (* Belady misses 5 cold + roughly one per k-1 thereafter. *)
  Alcotest.(check bool)
    (Printf.sprintf "belady %d ~ %d" belady (5 + ((50 - 5) / k)))
    true
    (belady <= 5 + ((50 - 5) / (k - 1)) + 1)

(* ------------------------------------------------------------ Opt_bounds *)

let qcheck_opt_bounds_bracket_exact =
  Test_util.qcheck ~count:100 "window lower bound <= exact OPT <= clairvoyant"
    (QCheck.pair
       (Test_util.small_trace_arbitrary ~max_universe:9 ~max_len:24 ())
       QCheck.(int_range 1 5))
    (fun ((bs, reqs), h) ->
      let trace = Test_util.trace_of (bs, reqs) in
      let exact = Exact_gc.solve ~k:h trace in
      Opt_bounds.best_window_bound trace ~h <= exact
      && exact <= Belady.(cost clairvoyant ~k:h trace))

let test_opt_bounds_compulsory () =
  let trace = Test_util.trace_of (2, [| 0; 2; 4; 0; 2; 4 |]) in
  Alcotest.(check int) "distinct blocks" 3 (Opt_bounds.compulsory trace)

let test_opt_bounds_window_counts () =
  (* 6 distinct blocks per window of 6, h = 2: at least 4 misses/window. *)
  let reqs = Array.init 24 (fun i -> 2 * (i mod 6)) in
  let trace = Test_util.trace_of (1, reqs) in
  Alcotest.(check int) "window bound" 16
    (Opt_bounds.window_bound trace ~h:2 ~window:6)

let test_ratio_interval_brackets () =
  let trace =
    Gc_trace.Generators.spatial_mix (rng ()) ~n:20_000 ~universe:4096
      ~block_size:16 ~p_spatial:0.5
  in
  let online = Test_util.run_misses (Gc_cache.Lru.create ~k:256) trace in
  let lo, hi = Opt_bounds.ratio_interval ~online trace ~h:64 in
  Alcotest.(check bool) "lo <= hi" true (lo <= hi);
  Alcotest.(check bool) "lo >= 1-ish" true (lo > 0.5)

(* ------------------------------------- adversary OPT-cost certification *)

let test_certify_thm2_opt () =
  let k = 64 and h = 16 and block_size = 4 in
  let lru = Gc_cache.Lru.create ~k in
  let c = Gc_cache.Attack.item_cache lru ~k ~h ~block_size ~cycles:12 in
  let claimed = c.Adversary.opt_misses + c.Adversary.warmup_opt_misses in
  let clair = Belady.(cost clairvoyant ~k:h c.Adversary.trace) in
  (* The clairvoyant heuristic is a real size-h schedule; it should land
     within a small factor of the proof's claimed OPT cost. *)
  Alcotest.(check bool)
    (Printf.sprintf "clairvoyant %d within 1.25x of claimed %d" clair claimed)
    true
    (float_of_int clair <= 1.25 *. float_of_int claimed);
  (* And the claimed cost can never beat the true optimum: on this size we
     cannot run Exact_gc, but clairvoyant also upper-bounds OPT, giving a
     machine-checked certificate for the measured ratio's denominator. *)
  let sched, _ = Schedule.record (Belady.clairvoyant ~k:h c.Adversary.trace) c.Adversary.trace in
  match Schedule.check c.Adversary.trace ~capacity:h sched with
  | Ok misses -> Alcotest.(check int) "schedule cost" clair misses
  | Error e -> Alcotest.failf "clairvoyant schedule invalid: %s" e

let test_certify_thm3_opt () =
  let k = 64 and h = 6 and block_size = 8 in
  let bl = Gc_cache.Block_lru.create ~k ~blocks:(Block_map.uniform ~block_size) in
  let c = Gc_cache.Attack.block_cache bl ~k ~h ~block_size ~cycles:12 in
  let claimed = c.Adversary.opt_misses + c.Adversary.warmup_opt_misses in
  let clair = Belady.(cost clairvoyant ~k:h c.Adversary.trace) in
  Alcotest.(check bool) "certified" true
    (float_of_int clair <= 1.25 *. float_of_int claimed)

let test_certify_small_thm2_exactly () =
  (* Small enough for the exact solver: the claimed OPT cost must be
     achievable (exact <= claimed). *)
  let k = 12 and h = 4 and block_size = 2 in
  let lru = Gc_cache.Lru.create ~k in
  let c = Gc_cache.Attack.item_cache lru ~k ~h ~block_size ~cycles:2 in
  let claimed = c.Adversary.opt_misses + c.Adversary.warmup_opt_misses in
  let exact = Exact_gc.solve ~k:h c.Adversary.trace in
  Alcotest.(check bool)
    (Printf.sprintf "exact %d <= claimed %d" exact claimed)
    true (exact <= claimed)

let () =
  Alcotest.run "gc_offline"
    [
      ( "next_use",
        [ qcheck_next_use; Alcotest.test_case "after" `Quick test_next_use_after ] );
      ( "belady",
        [
          qcheck_belady_beats_online_item_policies;
          qcheck_belady_equals_exact_when_b1;
          Alcotest.test_case "rejects wrong trace" `Quick test_belady_wrong_trace_rejected;
        ] );
      ( "block_belady",
        [
          qcheck_block_belady_beats_block_lru;
          Alcotest.test_case "scan" `Quick test_block_belady_scan;
        ] );
      ( "clairvoyant",
        [
          qcheck_exact_at_most_clairvoyant;
          Alcotest.test_case "loads useful siblings" `Quick test_clairvoyant_loads_useful_siblings;
          Alcotest.test_case "skips useless siblings" `Quick test_clairvoyant_skips_useless_siblings;
          Alcotest.test_case "gap statistics" `Quick test_clairvoyant_gap_statistics;
        ] );
      ( "exact_gc",
        [
          Alcotest.test_case "simple cases" `Quick test_exact_simple_cases;
          qcheck_exact_monotone_in_k;
          qcheck_exact_lower_bounds_online;
          test_exact_at_least_distinct_blocks;
          qcheck_solve_schedule_is_valid_and_optimal;
        ] );
      ( "varsize",
        [
          Alcotest.test_case "hand instance" `Quick test_varsize_hand_instance;
          Alcotest.test_case "fits" `Quick test_varsize_fits;
          Alcotest.test_case "validation" `Quick test_varsize_validation;
        ] );
      ( "reduction",
        [
          qcheck_reduction_preserves_optimum;
          Alcotest.test_case "structure" `Quick test_reduction_structure;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "record and check" `Quick test_schedule_record_and_check;
          Alcotest.test_case "catches violations" `Quick test_schedule_check_catches_violations;
          Alcotest.test_case "hand built" `Quick test_schedule_valid_hand_built;
          Alcotest.test_case "layered policy schedule" `Quick
            test_schedule_of_layered_policy_checks;
          Alcotest.test_case "belady known value" `Quick test_belady_known_value;
        ] );
      ( "opt_bounds",
        [
          qcheck_opt_bounds_bracket_exact;
          Alcotest.test_case "compulsory" `Quick test_opt_bounds_compulsory;
          Alcotest.test_case "window counts" `Quick test_opt_bounds_window_counts;
          Alcotest.test_case "ratio interval" `Quick test_ratio_interval_brackets;
        ] );
      ( "certification",
        [
          Alcotest.test_case "thm2 OPT certified" `Quick test_certify_thm2_opt;
          Alcotest.test_case "thm3 OPT certified" `Quick test_certify_thm3_opt;
          Alcotest.test_case "small thm2 exact" `Quick test_certify_small_thm2_exactly;
        ] );
    ]
