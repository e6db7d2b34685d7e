module Strategy = struct
  type t = {
    capacity : int;
    slots : int array;  (* item per occupied slot *)
    referenced : bool array;
    pos : (int, int) Hashtbl.t;  (* item -> slot *)
    mutable used : int;
    mutable hand : int;
    mutable probe : int;  (* persistent free-slot cursor for inserts *)
  }

  type config = int  (* capacity *)

  let name = "clock"

  let create capacity =
    {
      capacity;
      slots = Array.make capacity (-1);
      referenced = Array.make capacity false;
      pos = Hashtbl.create 256;
      used = 0;
      hand = 0;
      probe = 0;
    }

  let mem t x = Hashtbl.mem t.pos x
  let size t = t.used

  (* [find], not [find_opt]: a hit must not box its answer. *)
  let hit t x =
    match Hashtbl.find t.pos x with
    | slot ->
        t.referenced.(slot) <- true;
        true
    | exception Not_found -> false

  let insert t x =
    (* Only called when size < capacity: there is a free slot.  Free slots
       hold -1; a persistent cursor makes the scan amortized O(1) (evictions
       free the slot right behind the hand, which the cursor tracks). *)
    let rec find i = if t.slots.(i) = -1 then i else find ((i + 1) mod t.capacity) in
    let slot = find t.probe in
    t.probe <- (slot + 1) mod t.capacity;
    t.slots.(slot) <- x;
    t.referenced.(slot) <- false;
    Hashtbl.add t.pos x slot;
    t.used <- t.used + 1

  let pop_victim t =
    let rec sweep () =
      let s = t.hand in
      t.hand <- (t.hand + 1) mod t.capacity;
      if t.slots.(s) = -1 then sweep ()
      else if t.referenced.(s) then begin
        t.referenced.(s) <- false;
        sweep ()
      end
      else begin
        let v = t.slots.(s) in
        t.slots.(s) <- -1;
        Hashtbl.remove t.pos v;
        t.used <- t.used - 1;
        v
      end
    in
    sweep ()
end

module M = Item_policy.Make (Strategy)

let create ~k = M.create ~k k
