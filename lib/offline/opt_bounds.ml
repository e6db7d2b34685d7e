let compulsory trace = Gc_trace.Trace.distinct_blocks trace

let window_bound trace ~h ~window =
  if window < 1 then invalid_arg "Opt_bounds.window_bound: window < 1";
  let blocks = trace.Gc_trace.Trace.blocks in
  let n = Gc_trace.Trace.length trace in
  let total = ref 0 in
  let seen = Hashtbl.create 64 in
  let pos = ref 0 in
  while !pos < n do
    Hashtbl.reset seen;
    let stop = min n (!pos + window) in
    for p = !pos to stop - 1 do
      Hashtbl.replace seen
        (Gc_trace.Block_map.block_of blocks (Gc_trace.Trace.get trace p))
        ()
    done;
    total := !total + max 0 (Hashtbl.length seen - h);
    pos := stop
  done;
  !total

let best_window_bound trace ~h =
  let n = Gc_trace.Trace.length trace in
  let best = ref (compulsory trace) in
  let w = ref (max 1 (h / 2)) in
  while !w <= n do
    best := max !best (window_bound trace ~h ~window:!w);
    w := max (!w + 1) (!w * 3 / 2)
  done;
  !best

let ratio_interval ~online trace ~h =
  let upper_opt = Belady.(cost clairvoyant ~k:h trace) in
  let lower_opt = best_window_bound trace ~h in
  let lo =
    if upper_opt = 0 then infinity
    else float_of_int online /. float_of_int upper_opt
  in
  let hi =
    if lower_opt = 0 then infinity
    else float_of_int online /. float_of_int lower_opt
  in
  (lo, hi)
