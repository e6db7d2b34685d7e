open Gc_trace

let rng () = Rng.create 12345

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_bounds () =
  let r = rng () in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in r 5 9 in
    Alcotest.(check bool) "in inclusive range" true (v >= 5 && v <= 9)
  done;
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "float in range" true (v >= 0. && v < 2.5)
  done

let test_rng_invalid () =
  let r = rng () in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Rng.int_in r 3 2))

let test_rng_shuffle_permutation () =
  let r = rng () in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_split_independent () =
  let r = rng () in
  let child = Rng.split r in
  let a = Array.init 20 (fun _ -> Rng.int64 r) in
  let b = Array.init 20 (fun _ -> Rng.int64 child) in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_sample_without_replacement () =
  let r = rng () in
  for _ = 1 to 50 do
    let n = 1 + Rng.int r 20 in
    let bound = n + Rng.int r 30 in
    let s = Rng.sample_without_replacement r n bound in
    Alcotest.(check int) "count" n (Array.length s);
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun v ->
        Alcotest.(check bool) "in range" true (v >= 0 && v < bound);
        Alcotest.(check bool) "distinct" false (Hashtbl.mem tbl v);
        Hashtbl.add tbl v ())
      s
  done;
  (* Dense case covers the whole range. *)
  let s = Rng.sample_without_replacement r 10 10 in
  Array.sort compare s;
  Alcotest.(check (array int)) "full coverage" (Array.init 10 (fun i -> i)) s

let test_rng_golden_values () =
  (* Pin the splitmix64 stream: reproducibility across refactors is part of
     the contract (every experiment cites a seed). *)
  let r = Rng.create 42 in
  Alcotest.(check (list int))
    "first draws at seed 42"
    [ 5; 91; 54; 60; 50 ]
    (List.init 5 (fun _ -> Rng.int r 100))

let test_rng_float_distribution () =
  let r = rng () in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float r 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 0.5" mean)
    true
    (Float.abs (mean -. 0.5) < 0.01)

(* ------------------------------------------------------------ Block_map *)

let test_uniform_block_map () =
  let m = Block_map.uniform ~block_size:4 in
  Alcotest.(check int) "B" 4 (Block_map.block_size m);
  Alcotest.(check int) "block of 0" 0 (Block_map.block_of m 0);
  Alcotest.(check int) "block of 3" 0 (Block_map.block_of m 3);
  Alcotest.(check int) "block of 4" 1 (Block_map.block_of m 4);
  Alcotest.(check (array int)) "items of 2" [| 8; 9; 10; 11 |] (Block_map.items_of m 2);
  Alcotest.(check bool) "same block" true (Block_map.same_block m 8 11);
  Alcotest.(check bool) "different block" false (Block_map.same_block m 7 8);
  Alcotest.(check bool) "uniform" true (Block_map.is_uniform m)

let test_singleton_block_map () =
  let m = Block_map.singleton in
  Alcotest.(check int) "B" 1 (Block_map.block_size m);
  for i = 0 to 20 do
    Alcotest.(check int) "identity" i (Block_map.block_of m i)
  done

let test_explicit_block_map () =
  let m = Block_map.of_blocks [ [| 3; 1 |]; [| 7 |]; [| 10; 11; 12 |] ] in
  Alcotest.(check int) "B = max size" 3 (Block_map.block_size m);
  Alcotest.(check int) "block of 1" 0 (Block_map.block_of m 1);
  Alcotest.(check int) "block of 3" 0 (Block_map.block_of m 3);
  Alcotest.(check int) "block of 7" 1 (Block_map.block_of m 7);
  Alcotest.(check (array int)) "items sorted" [| 1; 3 |] (Block_map.items_of m 0);
  Alcotest.(check bool) "not uniform" false (Block_map.is_uniform m);
  (* Unlisted items get stable singleton blocks. *)
  let b99 = Block_map.block_of m 99 in
  Alcotest.(check int) "stable" b99 (Block_map.block_of m 99);
  Alcotest.(check (array int)) "singleton" [| 99 |] (Block_map.items_of m b99)

(* An unlisted item's block id depends on the item alone: neither an
   earlier query nor a policy's [mem] on another unlisted item moves it. *)
let test_explicit_ids_fixed () =
  let map () = Block_map.of_blocks [ [| 0; 1 |]; [| 2; 3 |] ] in
  let fresh = Block_map.block_of (map ()) 100 in
  let m = map () in
  ignore (Block_map.block_of m 50);
  Alcotest.(check int) "after block_of 50" fresh (Block_map.block_of m 100);
  List.iter
    (fun name ->
      let m = map () in
      let p = Gc_cache.Registry.make name ~k:8 ~blocks:m ~seed:1 in
      ignore (Gc_cache.Policy.mem p 50);
      Alcotest.(check int) (name ^ ": after mem 50") fresh (Block_map.block_of m 100))
    Gc_cache.Registry.names;
  Alcotest.(check (array int)) "alone in its block" [| 100 |]
    (Block_map.items_of (map ()) fresh)

let test_explicit_rejects_duplicates () =
  Alcotest.check_raises "duplicate item"
    (Invalid_argument "Block_map.of_blocks: item in two blocks") (fun () ->
      ignore (Block_map.of_blocks [ [| 1; 2 |]; [| 2; 3 |] ]));
  Alcotest.check_raises "empty block"
    (Invalid_argument "Block_map.of_blocks: empty block") (fun () ->
      ignore (Block_map.of_blocks [ [||] ]))

(* ---------------------------------------------------------------- Trace *)

let test_trace_basics () =
  let m = Block_map.uniform ~block_size:2 in
  let t = Trace.of_list m [ 0; 1; 4; 1; 5 ] in
  Alcotest.(check int) "length" 5 (Trace.length t);
  Alcotest.(check int) "get" 4 (Trace.get t 2);
  Alcotest.(check int) "block_at" 2 (Trace.block_at t 2);
  Alcotest.(check int) "distinct items" 4 (Trace.distinct_items t);
  Alcotest.(check int) "distinct blocks" 2 (Trace.distinct_blocks t);
  Alcotest.(check (array int)) "universe" [| 0; 1; 4; 5 |] (Trace.universe t);
  Alcotest.(check int) "max item" 5 (Trace.max_item t);
  let t2 = Trace.concat [ t; t ] in
  Alcotest.(check int) "concat length" 10 (Trace.length t2);
  let t3 = Trace.sub t ~pos:1 ~len:3 in
  Alcotest.(check int) "sub" 1 (Trace.get t3 0)

let test_trace_rejects_negative () =
  Alcotest.check_raises "negative id"
    (Invalid_argument "Trace.make: negative item id") (fun () ->
      ignore (Trace.of_list Block_map.singleton [ 1; -2 ]))

(* ----------------------------------------------------------------- Zipf *)

let test_zipf_probabilities () =
  let z = Zipf.create ~n:10 ~alpha:1.0 in
  let total = ref 0. in
  for r = 0 to 9 do
    total := !total +. Zipf.probability z r
  done;
  Test_util.check_float ~eps:1e-9 "sums to 1" 1.0 !total;
  for r = 0 to 8 do
    Alcotest.(check bool) "monotone" true
      (Zipf.probability z r >= Zipf.probability z (r + 1))
  done

let test_zipf_uniform_alpha0 () =
  let z = Zipf.create ~n:8 ~alpha:0.0 in
  for r = 0 to 7 do
    Test_util.check_float ~eps:1e-9 "uniform" 0.125 (Zipf.probability z r)
  done

let test_zipf_sampling () =
  let r = rng () in
  let z = Zipf.create ~n:100 ~alpha:1.2 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let s = Zipf.sample z r in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 100);
    counts.(s) <- counts.(s) + 1
  done;
  Alcotest.(check bool) "rank 0 dominates" true (counts.(0) > counts.(50))

(* A CDF holding NaN would stop the guide walk at its first NaN rank. *)
let test_zipf_rejects () =
  Alcotest.check_raises "nan alpha" (Invalid_argument "Zipf.create: alpha is not finite")
    (fun () -> ignore (Zipf.create ~n:10 ~alpha:Float.nan));
  Alcotest.check_raises "infinite alpha" (Invalid_argument "Zipf.create: alpha is not finite")
    (fun () -> ignore (Zipf.create ~n:10 ~alpha:Float.neg_infinity));
  Alcotest.check_raises "overflowing weights" (Invalid_argument "Zipf.create: weights overflow")
    (fun () -> ignore (Zipf.create ~n:1000 ~alpha:(-200.)))

(* The CDF and binary search [Zipf] sampled with before its guide table,
   kept here as the reference its draws must equal.  alpha = 0 puts CDF
   values exactly on cell boundaries; n just past a power of two leaves
   most cells one rank wide. *)
let reference_zipf_cdf ~n ~alpha =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) alpha);
    cdf.(r) <- !acc
  done;
  let total = !acc in
  for r = 0 to n - 1 do
    cdf.(r) <- cdf.(r) /. total
  done;
  cdf.(n - 1) <- 1.0;
  cdf

let reference_zipf_sample cdf rng =
  let u = float_of_int (Rng.bits53 rng) /. 0x1p53 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let test_zipf_matches_binary_search () =
  List.iter
    (fun n ->
      List.iter
        (fun alpha ->
          let z = Zipf.create ~n ~alpha and cdf = reference_zipf_cdf ~n ~alpha in
          let rng = Rng.create (n + 7) in
          let reference = Rng.copy rng in
          for i = 1 to 200_000 do
            let got = Zipf.sample z rng and expected = reference_zipf_sample cdf reference in
            if got <> expected then
              Alcotest.failf "n=%d alpha=%g draw %d: rank %d, binary search %d" n alpha i got
                expected
          done)
        [ 0.; 0.8; 1.; 1.2; 2. ])
    [ 1; 2; 3; 8; 9; 1024; 1025; 16384; 65537 ]

(* ------------------------------------------------------------ Generators *)

let test_sequential () =
  let t = Generators.sequential ~n:10 ~universe:4 ~block_size:2 in
  Alcotest.(check (array int)) "cycle" [| 0; 1; 2; 3; 0; 1; 2; 3; 0; 1 |]
    t.Trace.requests

let test_strided () =
  let t = Generators.strided ~n:5 ~stride:3 ~universe:7 ~block_size:2 in
  Alcotest.(check (array int)) "strides" [| 0; 3; 6; 2; 5 |] t.Trace.requests

let test_uniform_random_bounds () =
  let t = Generators.uniform_random (rng ()) ~n:1000 ~universe:50 ~block_size:4 in
  Trace.iter (fun x -> Alcotest.(check bool) "bounds" true (x >= 0 && x < 50)) t

let test_spatial_mix_extremes () =
  let t = Generators.spatial_mix (rng ()) ~n:2000 ~universe:64 ~block_size:8 ~p_spatial:1.0 in
  (* With p = 1 every access stays in the very first block. *)
  Alcotest.(check int) "one block" 1 (Trace.distinct_blocks t);
  let t0 = Generators.spatial_mix (rng ()) ~n:5000 ~universe:640 ~block_size:8 ~p_spatial:0.0 in
  Alcotest.(check bool) "no spatial: many blocks" true (Trace.distinct_blocks t0 > 50)

let test_spatial_mix_ratio_monotone () =
  (* Use a universe much larger than the trace so the whole-trace ratio
     reflects the locality knob rather than saturating at B. *)
  let ratio p =
    let t = Generators.spatial_mix (rng ()) ~n:20_000 ~universe:200_000 ~block_size:16 ~p_spatial:p in
    Stats.spatial_ratio t
  in
  Alcotest.(check bool) "higher p -> higher f/g" true (ratio 0.9 > ratio 0.1 +. 0.5)

let test_working_set_phases () =
  let t =
    Generators.working_set_phases (rng ()) ~block_size:4
      ~phases:[ (10, 100); (20, 50) ]
  in
  Alcotest.(check int) "length" 150 (Trace.length t);
  (* Phase 2 items live in [10, 30). *)
  for pos = 100 to 149 do
    let x = Trace.get t pos in
    Alcotest.(check bool) "phase 2 range" true (x >= 10 && x < 30)
  done

let test_block_scan () =
  let t = Generators.block_scan ~n_blocks:3 ~repeats:2 ~block_size:2 in
  Alcotest.(check (array int)) "pattern"
    [| 0; 1; 0; 1; 2; 3; 2; 3; 4; 5; 4; 5 |]
    t.Trace.requests

let test_interleave () =
  let m = Block_map.uniform ~block_size:2 in
  let a = Trace.of_list m [ 0; 2; 4 ] and b = Trace.of_list m [ 1; 3 ] in
  let t = Generators.interleave a b in
  Alcotest.(check (array int)) "round robin" [| 0; 1; 2; 3; 4 |] t.Trace.requests

let test_markov_mixes_locality () =
  let t = Generators.markov (rng ()) ~n:40_000 ~universe:65_536 ~block_size:16 ~p_switch:0.02 in
  (* Streaming stretches give long same-block runs; random stretches break
     them: the mean run length sits strictly between the two pure cases. *)
  let mean = Stats.mean_block_run_length t in
  Alcotest.(check bool)
    (Printf.sprintf "mean run length %.2f in (1.2, 16)" mean)
    true
    (mean > 1.2 && mean < 16.);
  Trace.iter (fun x -> Alcotest.(check bool) "bounds" true (x >= 0 && x < 65_536)) t

let test_pointer_chase () =
  let t = Generators.pointer_chase (rng ()) ~n:20 ~universe:10 ~block_size:2 in
  (* The first 10 accesses form a permutation, repeated. *)
  let first = Array.sub t.Trace.requests 0 10 in
  Array.sort compare first;
  Alcotest.(check (array int)) "permutation" (Array.init 10 (fun i -> i)) first;
  Alcotest.(check int) "cycle repeats" (Trace.get t 0) (Trace.get t 10)

(* ---------------------------------------------------------------- Stats *)

let brute_force_distances proj requests =
  let n = Array.length requests in
  let finite = Hashtbl.create 16 in
  let cold = ref 0 in
  for i = 0 to n - 1 do
    let v = proj requests.(i) in
    (* Find previous position of v. *)
    let rec prev j = if j < 0 then None else if proj requests.(j) = v then Some j else prev (j - 1) in
    match prev (i - 1) with
    | None -> incr cold
    | Some j ->
        let seen = Hashtbl.create 8 in
        for p = j + 1 to i - 1 do
          Hashtbl.replace seen (proj requests.(p)) ()
        done;
        let d = Hashtbl.length seen in
        Hashtbl.replace finite d
          (1 + Option.value ~default:0 (Hashtbl.find_opt finite d))
  done;
  (finite, !cold)

let qcheck_stack_distances =
  Test_util.qcheck ~count:200 "stack distances match brute force"
    (Test_util.small_trace_arbitrary ())
    (fun (bs, reqs) ->
      let trace = Test_util.trace_of (bs, reqs) in
      let h = Stats.stack_distances trace in
      let expected, cold = brute_force_distances (fun x -> x) reqs in
      if cold <> h.Stats.cold then false
      else
        Hashtbl.fold
          (fun d c acc ->
            acc && d < Array.length h.Stats.finite && h.Stats.finite.(d) = c)
          expected true
        && Array.to_list h.Stats.finite
           |> List.mapi (fun d c -> (d, c))
           |> List.for_all (fun (d, c) ->
                  c = Option.value ~default:0 (Hashtbl.find_opt expected d)))

let qcheck_miss_curve_matches_lru =
  Test_util.qcheck ~count:150 "Mattson curve equals simulated LRU"
    (QCheck.pair (Test_util.small_trace_arbitrary ()) QCheck.(int_range 1 8))
    (fun ((bs, reqs), k) ->
      let trace = Test_util.trace_of (bs, reqs) in
      let h = Stats.stack_distances trace in
      let predicted = Stats.lru_misses_at h k in
      let simulated =
        Test_util.run_misses (Gc_cache.Lru.create ~k) trace
      in
      predicted = simulated)

let test_miss_curve_monotone () =
  let t = Generators.uniform_random (rng ()) ~n:5000 ~universe:100 ~block_size:4 in
  let h = Stats.stack_distances t in
  let curve = Stats.miss_curve h ~max_size:120 in
  for k = 0 to 119 do
    Alcotest.(check bool) "monotone non-increasing" true (curve.(k) >= curve.(k + 1))
  done;
  Alcotest.(check int) "k=0 misses everything" 5000 curve.(0);
  Alcotest.(check int) "k >= universe: only cold misses" 100 curve.(119)

let test_block_stack_distances () =
  let t = Generators.sequential ~n:16 ~universe:8 ~block_size:4 in
  let h = Stats.block_stack_distances t in
  (* Two blocks alternating: block pattern 0 0 0 0 1 1 1 1 0 ... *)
  Alcotest.(check int) "cold blocks" 2 h.Stats.cold

let test_frequencies () =
  let t = Test_util.trace_of (2, [| 0; 1; 0; 2; 0 |]) in
  let f = Stats.item_frequencies t in
  Alcotest.(check (option int)) "item 0" (Some 3) (Hashtbl.find_opt f 0);
  let g = Stats.block_frequencies t in
  Alcotest.(check (option int)) "block 0 = items 0,1" (Some 4) (Hashtbl.find_opt g 0)

(* -------------------------------------------------------------- Trace_io *)

let qcheck_io_roundtrip =
  Test_util.qcheck ~count:100 "serialization round-trips"
    (Test_util.small_trace_arbitrary ())
    (fun (bs, reqs) ->
      let t = Test_util.trace_of (bs, reqs) in
      let t' =
        Test_util.decoded (Trace_io.of_string_result (Trace_io.to_string t))
      in
      t'.Trace.requests = t.Trace.requests
      && Block_map.block_size t'.Trace.blocks = bs)

(* A file lists an explicit map's referenced blocks in order of first
   reference, so a decoded copy renumbers blocks read out of order, lists
   an unlisted item's block, and drops an unreferenced block (here wider
   than the rest).  It must keep the requests, which of them share a
   block, and the digest. *)
let check_explicit_roundtrip decode =
  List.iter
    (fun (blocks, requests) ->
      let t = Trace.of_list (Block_map.of_blocks blocks) requests in
      let t' = decode t in
      Alcotest.(check (array int)) "requests" t.Trace.requests t'.Trace.requests;
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              Alcotest.(check bool)
                (Printf.sprintf "%d and %d share a block" x y)
                (Block_map.same_block t.Trace.blocks x y)
                (Block_map.same_block t'.Trace.blocks x y))
            requests)
        requests;
      Alcotest.(check string) "digest" (Trace.digest t) (Trace.digest t'))
    [
      ([ [| 0; 1 |]; [| 2; 3 |] ], [ 2; 0; 3; 1 ]);
      ([ [| 1; 3 |]; [| 5; 6; 7 |] ], [ 1; 5; 3; 7; 9; 1 ]);
      ([ [| 1; 3 |]; [| 5; 6; 7 |] ], [ 1; 3; 1 ]);
    ]

let test_io_explicit_roundtrip () =
  check_explicit_roundtrip (fun t ->
      Test_util.decoded (Trace_io.of_string_result (Trace_io.to_string t)))

let qcheck_binary_roundtrip =
  Test_util.qcheck ~count:150 "binary serialization round-trips"
    (Test_util.small_trace_arbitrary ())
    (fun (bs, reqs) ->
      let t = Test_util.trace_of (bs, reqs) in
      let t2 =
        Test_util.decoded (Trace_io.of_bytes_result (Trace_io.to_bytes t))
      in
      t2.Trace.requests = t.Trace.requests
      && Block_map.block_size t2.Trace.blocks = bs)

let test_binary_explicit_roundtrip () =
  check_explicit_roundtrip (fun t ->
      Test_util.decoded (Trace_io.of_bytes_result (Trace_io.to_bytes t)))

let test_binary_compact_on_sequential () =
  let t = Generators.sequential ~n:100_000 ~universe:50_000 ~block_size:16 in
  let binary = Bytes.length (Trace_io.to_bytes t) in
  let text = String.length (Trace_io.to_string t) in
  (* Delta coding: ~1 byte per access vs ~6 for the text form. *)
  Alcotest.(check bool)
    (Printf.sprintf "binary %d << text %d" binary text)
    true
    (binary * 4 < text);
  Alcotest.(check bool) "about a byte per access" true (binary < 110_000)

let test_binary_rejects_garbage () =
  List.iter
    (fun b ->
      match Trace_io.of_bytes_result (Bytes.of_string b) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" b)
    [ ""; "GCTB"; "NOPE\001\000\004\000"; "GCTB\002\000\004\000";
      "GCTB\001\007" ]

let test_io_rejects_garbage () =
  List.iter
    (fun s ->
      match Trace_io.of_string_result s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ ""; "gctrace 2\n"; "gctrace 1\nblocks what 3\n"; "gctrace 1\nblocks uniform x\n" ]

let test_block_run_lengths () =
  (* B = 2: trace blocks are 0 0 | 1 | 0 0 0 -> runs 2, 1, 3. *)
  let t = Test_util.trace_of (2, [| 0; 1; 2; 0; 1; 0 |]) in
  let hist = Stats.block_run_lengths t in
  Alcotest.(check int) "runs of 1" 1 hist.(1);
  Alcotest.(check int) "runs of 2" 1 hist.(2);
  Alcotest.(check int) "runs of 3" 1 hist.(3);
  Test_util.check_float ~eps:1e-9 "mean" 2. (Stats.mean_block_run_length t)

let qcheck_run_lengths_sum_to_trace =
  Test_util.qcheck ~count:150 "run lengths partition the trace"
    (Test_util.small_trace_arbitrary ())
    (fun (bs, reqs) ->
      let t = Test_util.trace_of (bs, reqs) in
      let hist = Stats.block_run_lengths t in
      let total = ref 0 in
      Array.iteri (fun l c -> total := !total + (l * c)) hist;
      !total = Array.length reqs)

(* -------------------------------------------------------------- Transform *)

let test_transform_block_size () =
  let t = Test_util.trace_of (2, [| 0; 1; 4; 5 |]) in
  let t8 = Transform.with_block_size t ~block_size:8 in
  Alcotest.(check int) "one block" 1 (Trace.distinct_blocks t8);
  Alcotest.(check (array int)) "requests preserved" t.Trace.requests
    t8.Trace.requests

let test_transform_shuffle_preserves_temporal_structure () =
  let t =
    Generators.spatial_mix (rng ()) ~n:5000 ~universe:1024 ~block_size:8
      ~p_spatial:0.8
  in
  let shuffled = Transform.shuffle_layout (rng ()) t in
  (* Item-granularity reuse is untouched: stack distances identical. *)
  let h1 = Stats.stack_distances t and h2 = Stats.stack_distances shuffled in
  Alcotest.(check int) "cold" h1.Stats.cold h2.Stats.cold;
  Alcotest.(check (array int)) "distances" h1.Stats.finite h2.Stats.finite;
  (* Spatial locality is destroyed: far fewer repeated blocks per window. *)
  let g_before = Gc_locality.Working_set.g_at t 64 in
  let g_after = Gc_locality.Working_set.g_at shuffled 64 in
  Alcotest.(check bool)
    (Printf.sprintf "blocks per window grew (%d -> %d)" g_before g_after)
    true (g_after > g_before)

let test_transform_pack_blocks_improves_spatial () =
  (* Items touched consecutively but scattered across blocks: packing
     restores spatial locality. *)
  let scattered = Test_util.trace_of (4, [| 0; 100; 200; 0; 100; 200 |]) in
  let packed = Transform.pack_blocks scattered in
  Alcotest.(check int) "one block after packing" 1
    (Trace.distinct_blocks packed);
  Alcotest.(check int) "same distinct items" 3 (Trace.distinct_items packed)

let test_transform_truncate_and_sample () =
  let t = Test_util.trace_of (2, Array.init 100 (fun i -> i mod 10)) in
  Alcotest.(check int) "truncate" 30 (Trace.length (Transform.truncate t ~n:30));
  let sampled = Transform.sample_strided t ~keep_one_in:10 in
  Alcotest.(check int) "sampled length" 10 (Trace.length sampled);
  Alcotest.(check int) "keeps first" (Trace.get t 0) (Trace.get sampled 0)

(* --------------------------------------------------------- Workload_suite *)

let test_workload_suite () =
  let suite = Workload_suite.standard () in
  Alcotest.(check int) "eight workloads" 8 (List.length suite);
  let names = Workload_suite.names suite in
  Alcotest.(check bool) "unique names" true
    (List.sort_uniq compare names = List.sort compare names);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Workload_suite.name ^ " non-empty")
        true
        (Trace.length e.Workload_suite.trace > 0);
      Alcotest.(check bool)
        (e.Workload_suite.name ^ " described")
        true
        (String.length e.Workload_suite.description > 10))
    suite;
  (* Deterministic in the seed. *)
  let again = Workload_suite.standard () in
  List.iter2
    (fun a b ->
      Alcotest.(check (array int))
        (a.Workload_suite.name ^ " deterministic")
        a.Workload_suite.trace.Trace.requests b.Workload_suite.trace.Trace.requests)
    suite again;
  (* Lookup. *)
  Alcotest.(check bool) "find" true
    (Trace.length (Workload_suite.find "zipf" suite) > 0);
  match Workload_suite.find "nope" suite with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "found nonsense"

(* -------------------------------------------------------------- Adversary *)

let test_adversary_validation () =
  let lru = Gc_cache.Lru.create ~k:8 in
  (match Gc_cache.Attack.item_cache lru ~k:8 ~h:10 ~block_size:2 ~cycles:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "h > k accepted");
  let lru = Gc_cache.Lru.create ~k:8 in
  (match Gc_cache.Attack.block_cache lru ~k:8 ~h:10 ~block_size:4 ~cycles:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "h > ceil(k/B) accepted");
  let lru = Gc_cache.Lru.create ~k:32 in
  match
    Gc_cache.Attack.spatial_stress lru ~h:3 ~block_size:8 ~t_load:4 ~spacing:2
      ~cycles:1
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "h < t_load + 1 accepted"

let test_sleator_tarjan_exact () =
  (* Against LRU the ST construction achieves its bound exactly. *)
  let k = 60 and h = 20 in
  let lru = Gc_cache.Lru.create ~k in
  let c = Gc_cache.Attack.sleator_tarjan lru ~k ~h ~cycles:40 in
  Test_util.check_float ~eps:1e-9 "ratio = bound"
    c.Adversary.bound
    (Adversary.measured_ratio c)

let test_item_cache_adversary_exact () =
  (* Pick B | (k - h + 1) so the ceiling is exact. *)
  let k = 100 and h = 21 and block_size = 8 in
  let lru = Gc_cache.Lru.create ~k in
  let c = Gc_cache.Attack.item_cache lru ~k ~h ~block_size ~cycles:25 in
  Test_util.check_float ~eps:1e-9 "ratio = bound" c.Adversary.bound
    (Adversary.measured_ratio c)

let test_block_cache_adversary_exact () =
  let k = 96 and h = 4 and block_size = 8 in
  let bl = Gc_cache.Block_lru.create ~k ~blocks:(Block_map.uniform ~block_size) in
  let c = Gc_cache.Attack.block_cache bl ~k ~h ~block_size ~cycles:25 in
  Test_util.check_float ~eps:1e-9 "ratio = bound" c.Adversary.bound
    (Adversary.measured_ratio c)

let test_general_a_adversary () =
  let k = 128 and h = 16 and block_size = 8 in
  List.iter
    (fun a ->
      let p = Gc_cache.Param_a.create ~k ~a ~blocks:(Block_map.uniform ~block_size) in
      let c = Gc_cache.Attack.general_a p ~k ~h ~block_size ~cycles:20 in
      Alcotest.(check bool)
        (Printf.sprintf "a observed (a=%d)" a)
        true
        (List.assoc "a" c.Adversary.info = float_of_int (min a block_size));
      (* k - h + 1 = 113 divisible by nothing relevant; allow ceiling slack. *)
      Alcotest.(check bool)
        (Printf.sprintf "ratio close to bound (a=%d)" a)
        true
        (Adversary.measured_ratio c >= 0.85 *. c.Adversary.bound))
    [ 1; 2; 4; 8 ]

let test_adversary_traces_miss_everything () =
  (* The constructions guarantee the online policy misses every access
     after warmup. *)
  let k = 64 and h = 16 and block_size = 4 in
  let lru = Gc_cache.Lru.create ~k in
  let c = Gc_cache.Attack.item_cache lru ~k ~h ~block_size ~cycles:10 in
  let accesses = Trace.length c.Adversary.trace - c.Adversary.warmup_len in
  Alcotest.(check int) "all miss" accesses c.Adversary.online_misses

let test_spatial_stress_counts () =
  let block_size = 8 and h = 8 in
  let iblp =
    Gc_cache.Iblp.create ~i:8 ~b:32 ~blocks:(Block_map.uniform ~block_size) ()
  in
  let c =
    Gc_cache.Attack.spatial_stress iblp ~h ~block_size ~t_load:4 ~spacing:6
      ~cycles:20
  in
  (* Online IBLP misses everything: the spacing (6 >= b/B = 4) flushes the
     block layer between same-block requests. *)
  let accesses = Trace.length c.Adversary.trace in
  Alcotest.(check int) "all miss" accesses c.Adversary.online_misses;
  Test_util.check_float ~eps:1e-9 "ratio equals construction bound"
    c.Adversary.bound (Adversary.measured_ratio c)

let test_spatial_stress_pipelined () =
  let block_size = 8 in
  let b = 32 in
  let width = (b / block_size) + 1 in
  let t_load = 4 in
  let h = 1 + (((width * (t_load + 1)) + 1) / 2) in
  let iblp =
    Gc_cache.Iblp.create ~i:8 ~b ~blocks:(Block_map.uniform ~block_size) ()
  in
  let c =
    Gc_cache.Attack.spatial_stress_pipelined iblp ~h ~block_size ~t_load ~width
      ~rotations:200
  in
  (* Online misses every access; the measured ratio approaches t_load. *)
  Alcotest.(check int) "all miss" (Trace.length c.Adversary.trace)
    c.Adversary.online_misses;
  let r = Adversary.measured_ratio c in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.3f close to t = %d" r t_load)
    true
    (r > 0.9 *. float_of_int t_load && r <= float_of_int t_load);
  (* The claimed offline cost is achievable at size h (certified by the
     clairvoyant schedule). *)
  let clair = Gc_offline.Belady.(cost clairvoyant ~k:h c.Adversary.trace) in
  Alcotest.(check bool)
    (Printf.sprintf "certified: clairvoyant %d <= claimed %d" clair
       c.Adversary.opt_misses)
    true
    (clair <= c.Adversary.opt_misses)

let test_temporal_stress_counts () =
  let block_size = 4 and h = 6 in
  let lru = Gc_cache.Lru.create ~k:10 in
  let c =
    Gc_cache.Attack.temporal_stress lru ~h ~block_size ~spacing:12 ~cycles:15
  in
  let accesses = Trace.length c.Adversary.trace - c.Adversary.warmup_len in
  Alcotest.(check int) "all miss" accesses c.Adversary.online_misses

let () =
  Alcotest.run "gc_trace"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "sampling without replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "golden values" `Quick test_rng_golden_values;
          Alcotest.test_case "float distribution" `Quick test_rng_float_distribution;
        ] );
      ( "block_map",
        [
          Alcotest.test_case "uniform" `Quick test_uniform_block_map;
          Alcotest.test_case "singleton" `Quick test_singleton_block_map;
          Alcotest.test_case "explicit" `Quick test_explicit_block_map;
          Alcotest.test_case "rejects bad input" `Quick test_explicit_rejects_duplicates;
          Alcotest.test_case "unlisted ids are fixed" `Quick test_explicit_ids_fixed;
        ] );
      ( "trace",
        [
          Alcotest.test_case "basics" `Quick test_trace_basics;
          Alcotest.test_case "rejects negatives" `Quick test_trace_rejects_negative;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "probabilities" `Quick test_zipf_probabilities;
          Alcotest.test_case "alpha 0 uniform" `Quick test_zipf_uniform_alpha0;
          Alcotest.test_case "sampling" `Quick test_zipf_sampling;
          Alcotest.test_case "guide table matches binary search" `Quick
            test_zipf_matches_binary_search;
          Alcotest.test_case "rejects non-finite weights" `Quick test_zipf_rejects;
        ] );
      ( "generators",
        [
          Alcotest.test_case "sequential" `Quick test_sequential;
          Alcotest.test_case "strided" `Quick test_strided;
          Alcotest.test_case "uniform bounds" `Quick test_uniform_random_bounds;
          Alcotest.test_case "spatial mix extremes" `Quick test_spatial_mix_extremes;
          Alcotest.test_case "spatial mix monotone" `Quick test_spatial_mix_ratio_monotone;
          Alcotest.test_case "working set phases" `Quick test_working_set_phases;
          Alcotest.test_case "block scan" `Quick test_block_scan;
          Alcotest.test_case "interleave" `Quick test_interleave;
          Alcotest.test_case "pointer chase" `Quick test_pointer_chase;
          Alcotest.test_case "markov" `Quick test_markov_mixes_locality;
        ] );
      ( "stats",
        [
          qcheck_stack_distances;
          qcheck_miss_curve_matches_lru;
          Alcotest.test_case "miss curve monotone" `Quick test_miss_curve_monotone;
          Alcotest.test_case "block distances" `Quick test_block_stack_distances;
          Alcotest.test_case "frequencies" `Quick test_frequencies;
        ] );
      ( "trace_io",
        [
          qcheck_io_roundtrip;
          Alcotest.test_case "explicit roundtrip" `Quick test_io_explicit_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_io_rejects_garbage;
          qcheck_binary_roundtrip;
          Alcotest.test_case "binary explicit roundtrip" `Quick test_binary_explicit_roundtrip;
          Alcotest.test_case "binary is compact" `Quick test_binary_compact_on_sequential;
          Alcotest.test_case "binary rejects garbage" `Quick test_binary_rejects_garbage;
        ] );
      ( "run_lengths",
        [
          Alcotest.test_case "histogram" `Quick test_block_run_lengths;
          qcheck_run_lengths_sum_to_trace;
        ] );
      ( "transform",
        [
          Alcotest.test_case "block size" `Quick test_transform_block_size;
          Alcotest.test_case "shuffle preserves temporal" `Quick
            test_transform_shuffle_preserves_temporal_structure;
          Alcotest.test_case "pack improves spatial" `Quick
            test_transform_pack_blocks_improves_spatial;
          Alcotest.test_case "truncate and sample" `Quick
            test_transform_truncate_and_sample;
        ] );
      ( "workload_suite",
        [ Alcotest.test_case "catalog" `Quick test_workload_suite ] );
      ( "adversary",
        [
          Alcotest.test_case "validation" `Quick test_adversary_validation;
          Alcotest.test_case "sleator-tarjan exact vs LRU" `Quick test_sleator_tarjan_exact;
          Alcotest.test_case "thm2 exact vs LRU" `Quick test_item_cache_adversary_exact;
          Alcotest.test_case "thm3 exact vs Block-LRU" `Quick test_block_cache_adversary_exact;
          Alcotest.test_case "thm4 measures a" `Quick test_general_a_adversary;
          Alcotest.test_case "online misses everything" `Quick test_adversary_traces_miss_everything;
          Alcotest.test_case "spatial stress" `Quick test_spatial_stress_counts;
          Alcotest.test_case "pipelined spatial stress" `Quick
            test_spatial_stress_pipelined;
          Alcotest.test_case "temporal stress" `Quick test_temporal_stress_counts;
        ] );
    ]
