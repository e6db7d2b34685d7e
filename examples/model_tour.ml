(* A guided tour of the Granularity-Change Caching model, following the
   paper section by section with tiny runnable instances.

   Run with:  dune exec examples/model_tour.exe *)

open Gc_trace
open Gc_cache

let heading title = Format.printf "@.--- %s ---@." title

let () =
  (* Section 2: the model.  Items 1,2,3 form block A; a miss may load any
     subset of A containing the request, for one unit cost. *)
  heading "The model (Definition 1, Figure 1)";
  let blocks = Block_map.of_blocks [ [| 1; 2; 3 |] ] in
  let trace = Trace.of_list blocks [ 1; 2 ] in
  let clairvoyant = Gc_offline.Belady.clairvoyant ~k:2 trace in
  ignore
    (Simulator.run_with
       ~f:(fun pos item outcome ->
         match outcome with
         | Policy.Miss { loaded; _ } ->
             Format.printf
               "access %d (item A%d): miss; load subset {%s} - 1 unit cost@."
               pos item
               (String.concat ", "
                  (List.map (Printf.sprintf "A%d") (List.sort compare loaded)))
         | Policy.Hit _ ->
             Format.printf "access %d (item A%d): spatial hit, free@." pos item)
       clairvoyant trace);

  (* Temporal vs spatial hits (Section 2). *)
  heading "Temporal vs spatial locality";
  let blocks = Block_map.uniform ~block_size:4 in
  let t = Trace.of_list blocks [ 0; 1; 0; 2; 0 ] in
  let m = Simulator.run (Iblp.create ~i:2 ~b:8 ~blocks ()) t in
  Format.printf
    "trace 0 1 0 2 0 under IBLP: %d misses, %d spatial hits (first touches@.\
     of 1 and 2 after the block load), %d temporal hits (re-uses of 0)@."
    m.Metrics.misses m.Metrics.spatial_hits m.Metrics.temporal_hits;

  (* Section 3: NP-completeness via the reduction. *)
  heading "Offline GC caching is NP-complete (Theorem 1)";
  let inst =
    { Gc_offline.Varsize.sizes = [| 2; 1 |]; capacity = 2; requests = [| 0; 1; 0 |] }
  in
  let reduced = Gc_offline.Reduction.reduce inst in
  Format.printf
    "variable-size instance (sizes 2,1; capacity 2; trace A B A) reduces to@.\
     a GC trace of %d accesses over %d items;@."
    (Trace.length reduced.Gc_offline.Reduction.trace)
    (Trace.distinct_items reduced.Gc_offline.Reduction.trace);
  (match Gc_offline.Reduction.verify inst with
  | Ok (a, b) -> Format.printf "both optima = %d = %d (exact solvers agree)@." a b
  | Error e -> Format.printf "unexpected: %s@." e);

  (* Section 4: the lower bound, live. *)
  heading "Spatial locality breaks Item Caches (Theorem 2)";
  let k = 64 and h = 16 and block_size = 8 in
  let lru = Lru.create ~k in
  let c = Attack.item_cache lru ~k ~h ~block_size ~cycles:10 in
  Format.printf
    "LRU with %dx the offline cache's space still loses %.1fx on the@.\
     whole-block adversarial trace (classical paging predicts %.2fx)@."
    (k / h)
    (Adversary.measured_ratio c)
    (Gc_bounds.Sleator_tarjan.competitive_ratio ~k:(float_of_int k)
       ~h:(float_of_int h));

  (* Section 5: IBLP. *)
  heading "IBLP: an item layer in front of a block layer (Section 5)";
  let rng = Rng.create 7 in
  let mixed =
    Generators.interleave
      (Generators.zipf_items (Rng.split rng) ~n:20_000 ~universe:1024
         ~block_size ~alpha:1.1)
      (Generators.spatial_mix (Rng.split rng) ~n:20_000 ~universe:16_384
         ~block_size ~p_spatial:0.9)
  in
  List.iter
    (fun (name, p) ->
      let m = Simulator.run p mixed in
      Format.printf "  %-22s %6d misses@." name m.Metrics.misses)
    [
      ("item cache (LRU)", Lru.create ~k:512);
      ("block cache (LRU)", Block_lru.create ~k:512 ~blocks:mixed.Trace.blocks);
      ("IBLP (even split)", Iblp.create ~i:256 ~b:256 ~blocks:mixed.Trace.blocks ());
    ];

  (* Section 7: the locality model. *)
  heading "The extended locality model (Section 7)";
  let windows = [ 64; 512; 4096 ] in
  List.iter
    (fun n ->
      Format.printf "  window %5d: f = %4d items, g = %4d blocks (ratio %.2f)@."
        n
        (Gc_locality.Working_set.f_at mixed n)
        (Gc_locality.Working_set.g_at mixed n)
        (float_of_int (Gc_locality.Working_set.f_at mixed n)
        /. float_of_int (Gc_locality.Working_set.g_at mixed n)))
    windows;
  Format.printf
    "@.f counts distinct items per window, g distinct blocks; their ratio@.\
     is the trace's spatial locality, and Theorems 8-11 turn it into@.\
     fault-rate bounds - run 'dune exec bench/main.exe' for all of them.@."
