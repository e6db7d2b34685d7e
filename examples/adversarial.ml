(* Reproducing the paper's lower bounds empirically: build the adversarial
   traces of Theorems 2-4 against live policies and compare the measured
   competitive ratio (vs. a certified offline schedule) with the formulas.

   Run with:  dune exec examples/adversarial.exe *)

open Gc_trace
open Gc_cache

let print_result name c ~h =
  let measured = Adversary.measured_ratio c in
  let clair = Gc_offline.Belady.(cost clairvoyant ~k:h c.Adversary.trace) in
  let claimed = c.Adversary.opt_misses + c.Adversary.warmup_opt_misses in
  Format.printf
    "%-28s measured ratio %7.2f   bound %7.2f   OPT claimed %d / certified %d@."
    name measured c.Adversary.bound claimed clair

let () =
  let block_size = 16 in
  let k = 512 and h = 64 in
  let blocks = Block_map.uniform ~block_size in
  Format.printf
    "Adversarial constructions, k = %d, h = %d, B = %d (30 cycles each)@.@." k
    h block_size;

  (* Theorem 2: any Item Cache suffers ~B times the classical ST ratio. *)
  Format.printf "-- Theorem 2 trace (whole fresh blocks) vs item caches@.";
  List.iter
    (fun name ->
      let p = Registry.make name ~k ~blocks ~seed:3 in
      let c = Attack.item_cache p ~k ~h ~block_size ~cycles:30 in
      print_result name c ~h)
    [ "lru"; "fifo"; "clock" ];
  Format.printf "   (Sleator-Tarjan, spatial-blind, would predict only %.2f)@.@."
    (Gc_bounds.Sleator_tarjan.competitive_ratio ~k:(float_of_int k)
       ~h:(float_of_int h));

  (* Theorem 3: Block Caches against one-item-per-block traffic. *)
  Format.printf "-- Theorem 3 trace (one item per block) vs block caches@.";
  let h3 = 16 in
  let p = Registry.make "block-lru" ~k ~blocks ~seed:3 in
  let c = Attack.block_cache p ~k ~h:h3 ~block_size ~cycles:30 in
  print_result "block-lru" c ~h:h3;
  let p = Registry.make "block-lru" ~k ~blocks ~seed:3 in
  let c = Attack.block_cache p ~k ~h:(2 * h3) ~block_size ~cycles:30 in
  print_result "block-lru (h doubled)" c ~h:(2 * h3);
  Format.printf
    "   (the ratio blows up as B(h-1) approaches k: effective capacity k/B)@.@.";

  (* Theorem 4: the a-parameter family; the extremes are optimal. *)
  Format.printf "-- Theorem 4 trace vs the a-parameter family@.";
  List.iter
    (fun a ->
      let p = Param_a.create ~k ~a ~blocks in
      let c = Attack.general_a p ~k ~h ~block_size ~cycles:30 in
      print_result (Printf.sprintf "param-a (a = %d)" a) c ~h)
    [ 1; 2; 4; 8; 16 ];
  Format.printf
    "   (Section 4.4: only a = 1 and a = B are worth using; middle a loses)@.@.";

  (* IBLP against the same adversaries: close to the problem's lower bound. *)
  Format.printf "-- IBLP under attack (optimal split for this h)@.";
  let i =
    int_of_float
      (Gc_bounds.Partitioning.optimal_i ~k:(float_of_int k)
         ~h:(float_of_int h) ~block_size:(float_of_int block_size))
  in
  let iblp () = Iblp.create ~i ~b:(k - i) ~blocks () in
  let c = Attack.item_cache (iblp ()) ~k ~h ~block_size ~cycles:30 in
  print_result "iblp vs thm2 trace" c ~h;
  let c = Attack.sleator_tarjan (iblp ()) ~k ~h ~cycles:30 in
  print_result "iblp vs ST trace" c ~h;
  Format.printf "   theory: IBLP upper bound %.2f, problem lower bound %.2f@."
    (Gc_bounds.Partitioning.optimal_ratio ~k:(float_of_int k)
       ~h:(float_of_int h) ~block_size:(float_of_int block_size))
    (Gc_bounds.Lower_bounds.best ~k:(float_of_int k) ~h:(float_of_int h)
       ~block_size:(float_of_int block_size))
