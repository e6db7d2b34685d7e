let never = max_int

type t = {
  next : int array;  (* next.(pos) = next position of same item, or never *)
  occurrences : (int, int array) Hashtbl.t;  (* item -> positions, ascending *)
  cursors : (int, int) Hashtbl.t;  (* item -> index into occurrences *)
}

let of_trace trace =
  let n = Gc_trace.Trace.length trace in
  let next = Array.make n never in
  let last = Hashtbl.create 256 in
  for pos = n - 1 downto 0 do
    let item = Gc_trace.Trace.get trace pos in
    (match Hashtbl.find_opt last item with
    | Some p -> next.(pos) <- p
    | None -> ());
    Hashtbl.replace last item pos
  done;
  let lists = Hashtbl.create 256 in
  for pos = n - 1 downto 0 do
    let item = Gc_trace.Trace.get trace pos in
    let tail = Option.value ~default:[] (Hashtbl.find_opt lists item) in
    Hashtbl.replace lists item (pos :: tail)
  done;
  let occurrences = Hashtbl.create 256 in
  Hashtbl.iter
    (fun item positions -> Hashtbl.add occurrences item (Array.of_list positions))
    lists;
  { next; occurrences; cursors = Hashtbl.create 256 }

let at t pos = t.next.(pos)

let after t ~pos ~item =
  match Hashtbl.find_opt t.occurrences item with
  | None -> never
  | Some positions ->
      let n = Array.length positions in
      let c = ref (Option.value ~default:0 (Hashtbl.find_opt t.cursors item)) in
      while !c < n && positions.(!c) < pos do
        incr c
      done;
      Hashtbl.replace t.cursors item !c;
      if !c < n then positions.(!c) else never
