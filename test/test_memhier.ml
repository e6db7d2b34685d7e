open Gc_memhier

let rng () = Gc_trace.Rng.create 777

(* ---------------------------------------------------------------- geometry *)

let test_geometry_math () =
  let g = Geometry.create ~line_bytes:64 ~row_bytes:4096 in
  Alcotest.(check int) "B" 64 (Geometry.lines_per_row g);
  Alcotest.(check int) "line of 0" 0 (Geometry.line_of_addr g 0);
  Alcotest.(check int) "line of 63" 0 (Geometry.line_of_addr g 63);
  Alcotest.(check int) "line of 64" 1 (Geometry.line_of_addr g 64);
  Alcotest.(check int) "row of 4095" 0 (Geometry.row_of_addr g 4095);
  Alcotest.(check int) "row of 4096" 1 (Geometry.row_of_addr g 4096);
  (* Lines of one row share a block in the block map. *)
  let bm = Geometry.block_map g in
  Alcotest.(check bool) "same row same block" true
    (Gc_trace.Block_map.same_block bm
       (Geometry.line_of_addr g 0)
       (Geometry.line_of_addr g 4032));
  Alcotest.(check bool) "different rows" false
    (Gc_trace.Block_map.same_block bm
       (Geometry.line_of_addr g 0)
       (Geometry.line_of_addr g 4096))

let test_geometry_validation () =
  (match Geometry.create ~line_bytes:0 ~row_bytes:64 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero line accepted");
  (match Geometry.create ~line_bytes:48 ~row_bytes:100 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-dividing line accepted");
  match Geometry.line_of_addr Geometry.sram_dram (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative address accepted"

let test_presets () =
  Alcotest.(check int) "sram_dram B" 64 (Geometry.lines_per_row Geometry.sram_dram);
  Alcotest.(check int) "dram_flash B" 64 (Geometry.lines_per_row Geometry.dram_flash)

(* --------------------------------------------------------------- workloads *)

let test_sequential_workload () =
  let a = Workloads.sequential ~n:5 ~start:100 ~step:8 in
  Alcotest.(check (array int)) "addresses" [| 100; 108; 116; 124; 132 |] a

let test_matrix_traversals_same_footprint () =
  let rows = 8 and cols = 16 and elem_bytes = 8 and base = 0 in
  let rm = Workloads.matrix_row_major ~rows ~cols ~elem_bytes ~base in
  let cm = Workloads.matrix_col_major ~rows ~cols ~elem_bytes ~base in
  Alcotest.(check int) "same length" (Array.length rm) (Array.length cm);
  let sort a = let c = Array.copy a in Array.sort compare c; c in
  Alcotest.(check (array int)) "same address multiset" (sort rm) (sort cm)

let test_pointer_chase_workload () =
  let a = Workloads.pointer_chase (rng ()) ~n:20 ~nodes:10 ~node_bytes:64 ~base:0 in
  Alcotest.(check int) "cycle" a.(0) a.(10);
  Array.iter
    (fun addr -> Alcotest.(check int) "aligned" 0 (addr mod 64))
    a

let test_zipf_records_bounds () =
  let a =
    Workloads.zipf_records (rng ()) ~n:1000 ~records:50 ~record_bytes:128
      ~alpha:1.0 ~base:4096
  in
  Array.iter
    (fun addr ->
      Alcotest.(check bool) "in range" true
        (addr >= 4096 && addr < 4096 + (50 * 128));
      Alcotest.(check int) "record aligned" 0 ((addr - 4096) mod 128))
    a

let test_interleave_workload () =
  let a = Workloads.interleave [| 1; 2 |] [| 3; 4; 5 |] in
  Alcotest.(check (array int)) "mix" [| 1; 3; 2; 4; 5 |] a

(* --------------------------------------------------------------- hierarchy *)

let geo = Geometry.create ~line_bytes:64 ~row_bytes:512 (* B = 8 *)

let make_hier name k =
  Hierarchy.create geo ~capacity_lines:k ~make_policy:(fun ~k ~blocks ->
      Gc_cache.Registry.make name ~k ~blocks ~seed:11)

let test_streaming_favours_block_policies () =
  (* Stream 64 KiB: 1024 lines in 128 rows, touched sequentially. *)
  let stream = Workloads.sequential ~n:8192 ~start:0 ~step:8 in
  let lru = make_hier "lru" 64 in
  let bl = make_hier "block-lru" 64 in
  let iblp = make_hier "iblp" 64 in
  Hierarchy.run lru stream;
  Hierarchy.run bl stream;
  Hierarchy.run iblp stream;
  let s_lru = Hierarchy.stats lru
  and s_bl = Hierarchy.stats bl
  and s_iblp = Hierarchy.stats iblp in
  (* Each row holds 8 lines = 64 accesses at step 8; LRU misses every line,
     block policies once per row. *)
  Alcotest.(check int) "lru misses every line" 1024 s_lru.Hierarchy.misses;
  Alcotest.(check int) "block-lru misses once per row" 128 s_bl.Hierarchy.misses;
  Alcotest.(check bool) "iblp close to block-lru" true
    (s_iblp.Hierarchy.misses <= 2 * s_bl.Hierarchy.misses);
  Alcotest.(check int) "bytes accounted" (s_bl.Hierarchy.lines_loaded * 64)
    s_bl.Hierarchy.bytes_loaded

let test_skewed_records_favour_item_policies () =
  (* 512 hot records, one per row: whole-row caching wastes 7/8 of the
     cache, shrinking the effective capacity from 256 to 32 records. *)
  let lookups =
    Workloads.zipf_records (rng ()) ~n:20_000 ~records:512 ~record_bytes:512
      ~alpha:0.8 ~base:0
  in
  let lru = make_hier "lru" 256 in
  let bl = make_hier "block-lru" 256 in
  Hierarchy.run lru lookups;
  Hierarchy.run bl lookups;
  let s_lru = Hierarchy.stats lru and s_bl = Hierarchy.stats bl in
  Alcotest.(check bool) "block cache suffers" true
    (s_bl.Hierarchy.misses > s_lru.Hierarchy.misses)

let test_hierarchy_stats_consistency () =
  let h = make_hier "iblp" 128 in
  let stream =
    Workloads.interleave
      (Workloads.sequential ~n:4000 ~start:0 ~step:64)
      (Workloads.pointer_chase (rng ()) ~n:4000 ~nodes:100 ~node_bytes:512
         ~base:1_000_000)
  in
  Hierarchy.run h stream;
  let s = Hierarchy.stats h in
  Alcotest.(check int) "accesses" 8000 s.Hierarchy.accesses;
  Alcotest.(check int) "hits + misses" s.Hierarchy.accesses
    (s.Hierarchy.hits + s.Hierarchy.misses);
  Alcotest.(check int) "hit split" s.Hierarchy.hits
    (s.Hierarchy.spatial_hits + s.Hierarchy.temporal_hits);
  Alcotest.(check bool) "loaded >= misses" true
    (s.Hierarchy.lines_loaded >= s.Hierarchy.misses)

(* ----------------------------------------------------------------- kernels *)

(* Kernel streams come from the shared catalog (also the source for
   bench/main.ml and Gc_analysis.Catalog), so every consumer exercises
   the same canonical parameters. *)
let gen ?(seed = 777) name size =
  match Kernels.find name with
  | Some e -> e.Kernels.generate size ~seed
  | None -> Alcotest.failf "kernel %S missing from the catalog" name

let test_matmul_same_footprint () =
  let naive = gen "matmul-naive" Kernels.Small in
  let blocked = gen "matmul-blocked" Kernels.Small in
  Alcotest.(check int) "same access count" (Array.length naive)
    (Array.length blocked);
  let sort arr = let copy = Array.copy arr in Array.sort compare copy; copy in
  Alcotest.(check (array int)) "same address multiset" (sort naive) (sort blocked)

let test_blocked_matmul_fewer_row_opens () =
  let geo = Geometry.create ~line_bytes:64 ~row_bytes:512 in
  let run addrs =
    let h =
      Hierarchy.create geo ~capacity_lines:64 ~make_policy:(fun ~k ~blocks ->
          Gc_cache.Registry.make "block-lru" ~k ~blocks ~seed:1)
    in
    Hierarchy.run h addrs;
    (Hierarchy.stats h).Hierarchy.misses
  in
  let naive = run (gen "matmul-naive" Kernels.Bench) in
  let blocked = run (gen "matmul-blocked" Kernels.Bench) in
  Alcotest.(check bool)
    (Printf.sprintf "blocked %d < naive %d row opens" blocked naive)
    true
    (2 * blocked < naive)

let test_stencil_shape () =
  let addrs = gen "stencil" Kernels.Small in
  Alcotest.(check int) "5 accesses per interior cell per iter" (2 * 64 * 5)
    (Array.length addrs)

let test_btree_hot_root () =
  let addrs = gen "btree" Kernels.Small in
  (* Depth = 3 (16^3 = 4096): every lookup visits the root first. *)
  Alcotest.(check int) "depth 3" 300 (Array.length addrs);
  Alcotest.(check int) "root first" 0 addrs.(0);
  Alcotest.(check int) "root every lookup" 0 addrs.(3)

let test_catalog_well_formed () =
  let names = Kernels.names in
  let sorted = List.sort_uniq compare names in
  Alcotest.(check int) "names unique" (List.length names) (List.length sorted);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Kernels.name ^ " documented")
        true
        (String.length e.Kernels.doc > 10);
      (* Same seed, same stream: the catalog is deterministic. *)
      Alcotest.(check (array int))
        (e.Kernels.name ^ " deterministic")
        (e.Kernels.generate Kernels.Small ~seed:5)
        (e.Kernels.generate Kernels.Small ~seed:5);
      Alcotest.(check bool)
        (e.Kernels.name ^ " non-empty")
        true
        (Array.length (e.Kernels.generate Kernels.Small ~seed:5) > 0))
    Kernels.catalog;
  Alcotest.(check (option string))
    "find" (Some "stencil")
    (Option.map (fun e -> e.Kernels.name) (Kernels.find "stencil"));
  Alcotest.(check bool) "find unknown" true (Kernels.find "nope" = None)

let test_hash_join_mixes () =
  let addrs = gen "hash-join" Kernels.Small in
  Alcotest.(check int) "2 accesses per row" 600 (Array.length addrs);
  (* Table accesses ascend; hash accesses stay in the bucket range. *)
  Alcotest.(check int) "first table row" 0 addrs.(0);
  Alcotest.(check bool) "hash in range" true
    (addrs.(1) >= 1_048_576 && addrs.(1) < 1_048_576 + (32 * 16))

(* --------------------------------------------------------------- writeback *)

let test_writeback_accounting () =
  let geo = Geometry.create ~line_bytes:64 ~row_bytes:512 in
  let wb =
    Writeback.create geo ~capacity_lines:8 ~make_policy:(fun ~k ~blocks ->
        Gc_cache.Registry.make "lru" ~k ~blocks ~seed:1)
  in
  (* Write 8 lines of one row (fills the cache), then stream reads to evict
     them: every dirty line must be written back, coalescing into row
     writes. *)
  Writeback.run wb (Workloads.log_append ~n:8 ~base:0 ~record_bytes:64);
  Writeback.run wb
    (Workloads.read_write_mix (rng ())
       ~addrs:(Workloads.sequential ~n:16 ~start:65_536 ~step:64)
       ~write_fraction:0.);
  Writeback.flush wb;
  let s = Writeback.stats wb in
  Alcotest.(check int) "writes" 8 s.Writeback.writes;
  Alcotest.(check int) "reads" 16 s.Writeback.reads;
  Alcotest.(check int) "all dirty lines written back" 8 s.Writeback.dirty_evictions;
  Alcotest.(check int) "bytes written" (8 * 64) s.Writeback.bytes_written;
  Alcotest.(check bool) "row writes coalesce" true (s.Writeback.writeback_rows <= 8)

let test_writeback_log_coalesces_with_block_policy () =
  (* An append-only log: with a whole-row policy, the 8 dirty lines of each
     row are evicted together and coalesce into one row write; an item
     policy evicts them one by one (8 row writes). *)
  let geo = Geometry.create ~line_bytes:64 ~row_bytes:512 in
  let run name =
    let wb =
      Writeback.create geo ~capacity_lines:64 ~make_policy:(fun ~k ~blocks ->
          Gc_cache.Registry.make name ~k ~blocks ~seed:1)
    in
    Writeback.run wb (Workloads.log_append ~n:4096 ~base:0 ~record_bytes:64);
    Writeback.flush wb;
    (Writeback.stats wb).Writeback.writeback_rows
  in
  let item_rows = run "lru" and block_rows = run "block-lru" in
  Alcotest.(check bool)
    (Printf.sprintf "block policy coalesces (%d vs %d row writes)" block_rows
       item_rows)
    true
    (block_rows * 4 <= item_rows)

let test_writeback_clean_reads_write_nothing () =
  let geo = Geometry.sram_dram in
  let wb =
    Writeback.create geo ~capacity_lines:128 ~make_policy:(fun ~k ~blocks ->
        Gc_cache.Registry.make "iblp" ~k ~blocks ~seed:1)
  in
  Writeback.run wb
    (Workloads.read_write_mix (rng ())
       ~addrs:(Workloads.sequential ~n:10_000 ~start:0 ~step:64)
       ~write_fraction:0.);
  Writeback.flush wb;
  let s = Writeback.stats wb in
  Alcotest.(check int) "no write-backs" 0 s.Writeback.dirty_evictions;
  Alcotest.(check int) "no bytes written" 0 s.Writeback.bytes_written

let test_writeback_flush_idempotent () =
  let geo = Geometry.create ~line_bytes:64 ~row_bytes:512 in
  let wb =
    Writeback.create geo ~capacity_lines:16 ~make_policy:(fun ~k ~blocks ->
        Gc_cache.Registry.make "lru" ~k ~blocks ~seed:1)
  in
  Writeback.run wb (Workloads.log_append ~n:8 ~base:0 ~record_bytes:64);
  Writeback.flush wb;
  let first = (Writeback.stats wb).Writeback.dirty_evictions in
  Writeback.flush wb;
  Alcotest.(check int) "second flush writes nothing" first
    (Writeback.stats wb).Writeback.dirty_evictions

let () =
  Alcotest.run "gc_memhier"
    [
      ( "geometry",
        [
          Alcotest.test_case "math" `Quick test_geometry_math;
          Alcotest.test_case "validation" `Quick test_geometry_validation;
          Alcotest.test_case "presets" `Quick test_presets;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "sequential" `Quick test_sequential_workload;
          Alcotest.test_case "matrix traversals" `Quick test_matrix_traversals_same_footprint;
          Alcotest.test_case "pointer chase" `Quick test_pointer_chase_workload;
          Alcotest.test_case "zipf records" `Quick test_zipf_records_bounds;
          Alcotest.test_case "interleave" `Quick test_interleave_workload;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "streaming" `Quick test_streaming_favours_block_policies;
          Alcotest.test_case "skewed records" `Quick test_skewed_records_favour_item_policies;
          Alcotest.test_case "stats consistency" `Quick test_hierarchy_stats_consistency;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "matmul footprint" `Quick test_matmul_same_footprint;
          Alcotest.test_case "blocking helps" `Quick test_blocked_matmul_fewer_row_opens;
          Alcotest.test_case "stencil shape" `Quick test_stencil_shape;
          Alcotest.test_case "btree hot root" `Quick test_btree_hot_root;
          Alcotest.test_case "hash join" `Quick test_hash_join_mixes;
          Alcotest.test_case "catalog well-formed" `Quick test_catalog_well_formed;
        ] );
      ( "writeback",
        [
          Alcotest.test_case "accounting" `Quick test_writeback_accounting;
          Alcotest.test_case "log coalesces" `Quick test_writeback_log_coalesces_with_block_policy;
          Alcotest.test_case "clean reads" `Quick test_writeback_clean_reads_write_nothing;
          Alcotest.test_case "flush idempotent" `Quick test_writeback_flush_idempotent;
        ] );
    ]
