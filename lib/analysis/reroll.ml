(* Greedy exact-repeat detection.  At position [i], for each candidate
   period [p], the run of positions matching [p] places earlier is
   extended as far as it goes; [r = 1 + run/p] full repetitions cover
   [r*p] items.  The longest cover with [r >= 2] wins (smallest period on
   ties, since shorter periods are found first and strict improvement is
   required); the body is re-rolled recursively when long enough to hide
   further structure. *)

let rec reroll_range ~max_period (items : int array) lo hi =
  let specs = ref [] in
  let push s = specs := s :: !specs in
  let i = ref lo in
  while !i < hi do
    let best_p = ref 0 and best_cover = ref 0 in
    let p_limit = min max_period ((hi - !i) / 2) in
    for p = 1 to p_limit do
      (* Longest run of positions equal to the position one period back. *)
      let j = ref (!i + p) in
      while !j < hi && items.(!j) = items.(!j - p) do
        incr j
      done;
      let repeats = 1 + ((!j - !i - p) / p) in
      let cover = repeats * p in
      if repeats >= 2 && cover > !best_cover then begin
        best_p := p;
        best_cover := cover
      end
    done;
    if !best_p > 0 then begin
      let p = !best_p in
      let body =
        if p >= 8 then reroll_range ~max_period:(p / 2) items !i (!i + p)
        else
          List.init p (fun idx -> Program.access items.(!i + idx))
      in
      push (Program.loop (!best_cover / p) body);
      i := !i + !best_cover
    end
    else begin
      push (Program.access items.(!i));
      incr i
    end
  done;
  List.rev !specs

(* Longest candidate loop body at the top level. *)
let max_period = 256

let of_items blocks items =
  Program.make blocks
    (reroll_range ~max_period items 0 (Array.length items))

let of_trace (trace : Gc_trace.Trace.t) =
  of_items trace.Gc_trace.Trace.blocks
    trace.Gc_trace.Trace.requests

let compression p =
  let rec size acc = function
    | Program.Access _ -> acc + 1
    | Program.Loop { body; _ } -> 1 + List.fold_left size acc body
    | Program.Branch { then_; else_ } ->
        1 + List.fold_left size (List.fold_left size acc then_) else_
  in
  let static = List.fold_left size 0 p.Program.body in
  if static = 0 then 1.0
  else float_of_int (Program.unrolled_length p) /. float_of_int static
