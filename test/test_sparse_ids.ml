(* Item ids far apart must not cost memory in proportion to the largest
   id: 50k checked accesses over 3,000 blocks spaced 2^40 apart keep the
   major heap's peak under 1M words.  The bound is on the process's peak,
   so this file holds nothing else. *)

open Gc_trace
open Gc_cache

let block_size = 16
let heap_bound = 1_000_000

let trace =
  lazy
    (let rng = Rng.create 17 in
     Trace.make
       (Block_map.uniform ~block_size)
       (Array.init 50_000 (fun _ -> (Rng.int rng 3_000 lsl 40) + Rng.int rng block_size)))

let run name () =
  let trace = Lazy.force trace in
  let policy = Registry.make name ~k:1024 ~blocks:trace.Trace.blocks ~seed:1 in
  let m = Simulator.run ~check:true policy trace in
  Alcotest.(check int) "every access simulated" 50_000 m.Metrics.accesses;
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  if top > heap_bound then
    Alcotest.failf "%s: major heap peaked at %d words, bound %d" name top heap_bound

let () =
  Alcotest.run "sparse_ids"
    [
      ( "heap",
        [
          Alcotest.test_case "lru stays O(distinct items)" `Quick (run "lru");
          Alcotest.test_case "block-lru stays O(distinct items)" `Quick (run "block-lru");
        ] );
    ]
