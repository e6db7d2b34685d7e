(* Triple-loop C = A * B (ijk order): A streamed row-wise (good), B
   column-wise (bad at row granularity).  Bases [a], [b], [c] locate the
   matrices.  Emits n^3 * 3 accesses. *)
let matmul_naive ~n ~elem_bytes ~a ~b ~c =
  let out = Array.make (n * n * n * 3) 0 in
  let pos = ref 0 in
  let push addr =
    out.(!pos) <- addr;
    incr pos
  in
  let idx base row col = base + (((row * n) + col) * elem_bytes) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      for kk = 0 to n - 1 do
        push (idx a i kk);
        push (idx b kk j);
        push (idx c i j)
      done
    done
  done;
  out

(* The tiled version: same multiset of work, far better reuse. *)
let matmul_blocked ~n ~tile ~elem_bytes ~a ~b ~c =
  if tile < 1 || n mod tile <> 0 then
    invalid_arg "Kernels.matmul_blocked: tile must divide n";
  let out = Array.make (n * n * n * 3) 0 in
  let pos = ref 0 in
  let push addr =
    out.(!pos) <- addr;
    incr pos
  in
  let idx base row col = base + (((row * n) + col) * elem_bytes) in
  let nt = n / tile in
  for it = 0 to nt - 1 do
    for jt = 0 to nt - 1 do
      for kt = 0 to nt - 1 do
        for i = it * tile to (it * tile) + tile - 1 do
          for j = jt * tile to (jt * tile) + tile - 1 do
            for kk = kt * tile to (kt * tile) + tile - 1 do
              push (idx a i kk);
              push (idx b kk j);
              push (idx c i j)
            done
          done
        done
      done
    done
  done;
  out

(* 5-point stencil sweeps: each cell reads its 4 neighbours and itself,
   row-major traversal, [iters] times. *)
let stencil_2d ~rows ~cols ~iters ~elem_bytes ~base =
  if rows < 3 || cols < 3 then
    invalid_arg "Kernels.stencil_2d: grid too small";
  let interior = (rows - 2) * (cols - 2) in
  let out = Array.make (iters * interior * 5) 0 in
  let pos = ref 0 in
  let push addr =
    out.(!pos) <- addr;
    incr pos
  in
  let idx row col = base + (((row * cols) + col) * elem_bytes) in
  for _ = 1 to iters do
    for r = 1 to rows - 2 do
      for col = 1 to cols - 2 do
        push (idx (r - 1) col);
        push (idx r (col - 1));
        push (idx r col);
        push (idx r (col + 1));
        push (idx (r + 1) col)
      done
    done
  done;
  out

(* Build: stream the build table once, one random bucket write each.
   Probe: stream probes, one random bucket read each.  Sequential table
   scans with random hash-bucket accesses — mixed locality by design. *)
let hash_join rng ~build_rows ~probe_rows ~row_bytes ~buckets ~base_table
    ~base_hash =
  let bucket_bytes = 16 in
  let out = Array.make (2 * (build_rows + probe_rows)) 0 in
  let pos = ref 0 in
  let push addr =
    out.(!pos) <- addr;
    incr pos
  in
  for r = 0 to build_rows - 1 do
    push (base_table + (r * row_bytes));
    push (base_hash + (Gc_trace.Rng.int rng buckets * bucket_bytes))
  done;
  let probe_base = base_table + (build_rows * row_bytes) in
  for r = 0 to probe_rows - 1 do
    push (probe_base + (r * row_bytes));
    push (base_hash + (Gc_trace.Rng.int rng buckets * bucket_bytes))
  done;
  out

(* Root-to-leaf descents over an implicit B-tree laid out level by level:
   the root and upper levels are hot (temporal), the leaves sparse. *)
let btree_lookups rng ~lookups ~keys ~fanout ~node_bytes ~base =
  if fanout < 2 then invalid_arg "Kernels.btree_lookups: fanout must be >= 2";
  (* Depth of an implicit tree with [keys] leaves. *)
  let depth =
    let rec go d capacity =
      if capacity >= keys then d else go (d + 1) (capacity * fanout)
    in
    go 1 fanout
  in
  (* Level l (0 = root) starts after fanout^0 + ... + fanout^(l-1) nodes. *)
  let level_offset = Array.make (depth + 1) 0 in
  for l = 1 to depth do
    level_offset.(l) <-
      level_offset.(l - 1) + int_of_float (Float.pow (float_of_int fanout) (float_of_int (l - 1)))
  done;
  let out = Array.make (lookups * depth) 0 in
  let pos = ref 0 in
  for _ = 1 to lookups do
    let key = Gc_trace.Rng.int rng keys in
    (* Level l has fanout^l nodes; the one on [key]'s path is
       key / fanout^(depth - l). *)
    for l = 0 to depth - 1 do
      let div =
        int_of_float (Float.pow (float_of_int fanout) (float_of_int (depth - l)))
      in
      let node = level_offset.(l) + (key / div) in
      out.(!pos) <- base + (node * node_bytes);
      incr pos
    done
  done;
  out

(* ---------------------------------------------------------------- catalog *)

type size = Small | Bench

type entry = {
  name : string;
  doc : string;
  generate : size -> seed:int -> int array;
}

let catalog =
  [
    {
      name = "matmul-naive";
      doc = "triple-loop C = A * B (ijk order), B streamed column-wise";
      generate =
        (fun size ~seed:_ ->
          match size with
          | Small -> matmul_naive ~n:8 ~elem_bytes:8 ~a:0 ~b:4096 ~c:8192
          | Bench ->
              matmul_naive ~n:32 ~elem_bytes:8 ~a:0 ~b:65_536 ~c:131_072);
    };
    {
      name = "matmul-blocked";
      doc = "tiled C = A * B: the same work multiset with far better reuse";
      generate =
        (fun size ~seed:_ ->
          match size with
          | Small -> matmul_blocked ~n:8 ~tile:4 ~elem_bytes:8 ~a:0 ~b:4096 ~c:8192
          | Bench ->
              matmul_blocked ~n:32 ~tile:8 ~elem_bytes:8 ~a:0 ~b:65_536
                ~c:131_072);
    };
    {
      name = "stencil";
      doc = "5-point stencil sweeps, row-major traversal";
      generate =
        (fun size ~seed:_ ->
          match size with
          | Small -> stencil_2d ~rows:10 ~cols:10 ~iters:2 ~elem_bytes:8 ~base:0
          | Bench -> stencil_2d ~rows:64 ~cols:64 ~iters:4 ~elem_bytes:8 ~base:0);
    };
    {
      name = "hash-join";
      doc = "sequential table scans with random hash-bucket accesses";
      generate =
        (fun size ~seed ->
          let rng = Gc_trace.Rng.create seed in
          match size with
          | Small ->
              hash_join rng ~build_rows:100 ~probe_rows:200 ~row_bytes:64
                ~buckets:32 ~base_table:0 ~base_hash:1_048_576
          | Bench ->
              hash_join rng ~build_rows:8192 ~probe_rows:32_768 ~row_bytes:64
                ~buckets:1024 ~base_table:0 ~base_hash:8_388_608);
    };
    {
      name = "btree";
      doc = "root-to-leaf descents: hot upper levels, sparse leaves";
      generate =
        (fun size ~seed ->
          let rng = Gc_trace.Rng.create seed in
          match size with
          | Small ->
              btree_lookups rng ~lookups:100 ~keys:4096 ~fanout:16
                ~node_bytes:256 ~base:0
          | Bench ->
              btree_lookups rng ~lookups:20_000 ~keys:65_536 ~fanout:16
                ~node_bytes:256 ~base:0);
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) catalog
let names = List.map (fun e -> e.name) catalog
