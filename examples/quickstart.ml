(* Quickstart: simulate granularity-change caching policies on a synthetic
   workload and compare them against the offline baselines.

   Run with:  dune exec examples/quickstart.exe *)

open Gc_trace
open Gc_cache

let () =
  let seed = 42 in
  let block_size = 16 in
  let k = 1024 in

  (* A workload with tunable spatial locality: 70% of accesses stay within
     the current block (think: fields of the same record, neighbouring
     array cells), the rest jump uniformly. *)
  let rng = Rng.create seed in
  let trace =
    Generators.spatial_mix rng ~n:200_000 ~universe:16_384 ~block_size
      ~p_spatial:0.7
  in
  Format.printf "workload: %a@." Trace.pp trace;
  Format.printf "whole-trace spatial ratio f/g = %.2f (max possible %d)@.@."
    (Stats.spatial_ratio trace) block_size;

  (* Run every registered policy at the same capacity. *)
  Format.printf "%-12s %10s %10s %10s %10s@." "policy" "misses" "hit rate"
    "spatial" "temporal";
  List.iter
    (fun spec ->
      let policy = spec.Registry.make ~k ~blocks:trace.Trace.blocks ~seed in
      let m = Simulator.run policy trace in
      Format.printf "%-12s %10d %9.4f%% %10d %10d@." spec.Registry.name
        m.Metrics.misses
        (100. *. Metrics.hit_rate m)
        m.Metrics.spatial_hits m.Metrics.temporal_hits)
    Registry.all;

  (* Offline references: what a clairvoyant cache could have done. *)
  Format.printf "@.%-12s %10d   (optimal item-granularity cache)@." "belady"
    (Gc_offline.Belady.(cost create ~k trace));
  Format.printf "%-12s %10d   (optimal block-granularity cache)@."
    "block-belady"
    (Gc_offline.Belady.(cost block ~k trace));
  Format.printf "%-12s %10d   (GC-aware clairvoyant heuristic)@." "clairvoyant"
    (Gc_offline.Belady.(cost clairvoyant ~k trace));

  (* What does the theory say? IBLP's competitive ratio against an offline
     cache 8x smaller, at the optimal layer split: *)
  let h = float_of_int (k / 8) in
  let kf = float_of_int k and bb = float_of_int block_size in
  Format.printf "@.theory: optimal IBLP split for k=%d vs h=%.0f: i = %.0f@." k
    h
    (Gc_bounds.Partitioning.optimal_i ~k:kf ~h ~block_size:bb);
  Format.printf "        competitive ratio bound %.2f (GC lower bound %.2f)@."
    (Gc_bounds.Partitioning.optimal_ratio ~k:kf ~h ~block_size:bb)
    (Gc_bounds.Lower_bounds.best ~k:kf ~h ~block_size:bb)
