type t = {
  trace : Gc_trace.Trace.t;
  capacity : int;
  active_sets : int array array;
}

let reduce (inst : Varsize.instance) =
  Varsize.validate inst;
  let next_id = ref 0 in
  let active_sets =
    Array.map
      (fun z ->
        Array.init z (fun _ ->
            let id = !next_id in
            incr next_id;
            id))
      inst.Varsize.sizes
  in
  let block_map = Gc_trace.Block_map.of_blocks (Array.to_list active_sets) in
  let requests = ref [] in
  Array.iter
    (fun v ->
      let active = active_sets.(v) in
      let z = Array.length active in
      (* z round-robin sweeps of the z-item active set. *)
      for _ = 1 to z do
        Array.iter (fun item -> requests := item :: !requests) active
      done)
    inst.Varsize.requests;
  {
    trace =
      Gc_trace.Trace.make block_map (Array.of_list (List.rev !requests));
    capacity = inst.Varsize.capacity;
    active_sets;
  }

let verify inst =
  let reduced = reduce inst in
  let vs_opt = Varsize.exact inst in
  let gc_opt = Exact_gc.solve ~k:reduced.capacity reduced.trace in
  if vs_opt = gc_opt then Ok (vs_opt, gc_opt)
  else
    Error
      (Printf.sprintf
         "reduction mismatch: varsize optimum %d, reduced GC optimum %d"
         vs_opt gc_opt)
