let never = max_int

type t = {
  next : int array;  (* next.(pos) = next position of same item, or never *)
  cursors : (int, int) Hashtbl.t;  (* item -> a position of it, or never *)
}

(* Walking backwards, [last] ends up holding each item's first position,
   which is where [after]'s cursor for the item starts. *)
let of_trace trace =
  let n = Gc_trace.Trace.length trace in
  let next = Array.make n never in
  let last = Hashtbl.create 256 in
  for pos = n - 1 downto 0 do
    let item = Gc_trace.Trace.get trace pos in
    (match Hashtbl.find last item with
    | p -> next.(pos) <- p
    | exception Not_found -> ());
    Hashtbl.replace last item pos
  done;
  { next; cursors = last }

let at t pos = t.next.(pos)

let after t ~pos ~item =
  match Hashtbl.find t.cursors item with
  | exception Not_found -> never
  | c ->
      let c = ref c in
      while !c < pos do
        c := t.next.(!c)
      done;
      Hashtbl.replace t.cursors item !c;
      !c
