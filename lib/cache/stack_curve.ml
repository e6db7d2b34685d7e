(* One LRU stack, bounded at the largest capacity [caps.(m - 1)], cut at
   the sorted distinct capacities [caps] (in slots).  Segment [j] is the
   depths [caps.(j - 1)] to [caps.(j) - 1] (from 0 for [j = 0]); an id
   there is a hit at [caps.(j)] and above and a miss below.  [seg] holds
   each id's segment, [m] for an id not on the stack.  The stack is a
   doubly linked list through [link]: id [x]'s neighbour towards the top
   at [2x], towards the bottom at [2x + 1], [nil] past either end.
   [last.(j)] is the deepest id of segment [j], once the stack has grown
   to [caps.(j)] ids ([filled] segments so far).

   Every id lies in [0, max_id] (a trace's items are never negative, and
   [max_id] is the largest), so the unchecked reads and writes stay in
   bounds. *)

let nil = -1

(* The simulator's: its progress stride, and the bound on its per-item
   bytes (they grow only while their length stays within [dense_slack]
   times the distinct items, and at least to [min_dense]). *)
let progress_stride = 4096
let min_dense = 1 lsl 16
let dense_slack = 16

external get : int array -> int -> int = "%array_unsafe_get"
external set : int array -> int -> int -> unit = "%array_unsafe_set"

(* Items per stack slot, for the policies that are one LRU stack. *)
let unit_of policy blocks =
  match policy with
  | "lru" -> Some 1
  | "block-lru" when Gc_trace.Block_map.is_uniform blocks ->
      Some (Gc_trace.Block_map.block_size blocks)
  | _ -> None

(* [misses.(j)]: the misses at [caps.(j)]. *)
let pass ~unit ~caps ~max_id requests =
  let m = Array.length caps in
  let link = Array.make (2 * (max_id + 1)) nil in
  let seg = Bytes.make (max_id + 1) (Char.chr m) in
  let last = Array.make m nil in
  let found = Array.make (m + 1) 0 in
  let top = ref nil and bottom = ref nil and size = ref 0 and filled = ref 0 in
  for pos = 0 to Array.length requests - 1 do
    if pos land (progress_stride - 1) = 0 then Gc_exec.Cancel.poll ();
    let x = requests.(pos) / unit in
    let s = Char.code (Bytes.unsafe_get seg x) in
    found.(s) <- found.(s) + 1;
    if x <> !top then begin
      (* Every id above [x] goes one deeper: each segment above [x]'s
         hands its deepest id to the next, and a full stack's bottom id
         leaves it. *)
      for j = 0 to (if s < !filled then s else !filled) - 1 do
        let b = last.(j) in
        Bytes.unsafe_set seg b (Char.unsafe_chr (j + 1));
        let up = get link (2 * b) in
        last.(j) <- (if up = nil then x else up)
      done;
      if s < m then begin
        let up = get link (2 * x) and down = get link (2 * x + 1) in
        if last.(s) = x then last.(s) <- up;
        set link ((2 * up) + 1) down;
        if down = nil then bottom := up else set link (2 * down) up
      end
      else if !size = caps.(m - 1) then begin
        let up = get link (2 * !bottom) in
        bottom := up;
        if up = nil then top := nil else set link ((2 * up) + 1) nil
      end
      else incr size;
      set link (2 * x) nil;
      set link ((2 * x) + 1) !top;
      if !top = nil then bottom := x else set link (2 * !top) x;
      top := x;
      Bytes.unsafe_set seg x '\000';
      (* Only a new id grows the stack, by one, so it reaches each
         capacity in turn. *)
      if !filled < m && !size = caps.(!filled) then begin
        last.(!filled) <- !bottom;
        incr filled
      end
    end
  done;
  let hits = ref 0 in
  Array.init m (fun j ->
      hits := !hits + found.(j);
      Array.length requests - !hits)

let rec index_of caps c j = if caps.(j) = c then j else index_of caps c (j + 1)

let span_args policy ks =
  if Gc_prof.Tracer.enabled () then
    [ ("policy", policy); ("ks", String.concat "," (List.map string_of_int ks)) ]
  else []

let misses policy ~ks trace =
  let requests = trace.Gc_trace.Trace.requests in
  match unit_of policy trace.Gc_trace.Trace.blocks with
  | None -> None
  | Some unit ->
      let largest = ref (-1) in
      Array.iter (fun x -> if x > !largest then largest := x) requests;
      let max_id = !largest / unit in
      let caps = Array.of_list (List.sort_uniq compare (List.map (fun k -> k / unit) ks)) in
      if
        List.exists (fun k -> k < unit) ks
        || Array.length caps > 255
        || max_id >= max min_dense (dense_slack * Array.length requests)
      then None
      else if ks = [] then Some []
      else
        Gc_prof.Span.with_ ~args:(span_args policy ks) "run_policy" (fun () ->
            let misses = pass ~unit ~caps ~max_id requests in
            Some (List.map (fun k -> misses.(index_of caps (k / unit) 0)) ks))
