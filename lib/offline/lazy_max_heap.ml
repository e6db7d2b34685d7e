type t = {
  mutable prio : int array;
  mutable item : int array;
  mutable len : int;
}

let create () = { prio = Array.make 64 0; item = Array.make 64 0; len = 0 }

let size t = t.len

let swap t i j =
  let p = t.prio.(i) and v = t.item.(i) in
  t.prio.(i) <- t.prio.(j);
  t.item.(i) <- t.item.(j);
  t.prio.(j) <- p;
  t.item.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.prio.(parent) < t.prio.(i) then begin
      swap t parent i;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let largest = ref i in
  if l < t.len && t.prio.(l) > t.prio.(!largest) then largest := l;
  if r < t.len && t.prio.(r) > t.prio.(!largest) then largest := r;
  if !largest <> i then begin
    swap t i !largest;
    sift_down t !largest
  end

let push t ~prio ~item =
  if t.len = Array.length t.prio then begin
    let grow a =
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit a 0 bigger 0 t.len;
      bigger
    in
    t.prio <- grow t.prio;
    t.item <- grow t.item
  end;
  t.prio.(t.len) <- prio;
  t.item.(t.len) <- item;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let pop_top t =
  let p = t.prio.(0) and v = t.item.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.prio.(0) <- t.prio.(t.len);
    t.item.(0) <- t.item.(t.len);
    sift_down t 0
  end;
  (p, v)

let rec pop_valid t ~is_valid =
  if t.len = 0 then None
  else begin
    let prio, item = pop_top t in
    if is_valid ~prio ~item then Some (prio, item) else pop_valid t ~is_valid
  end
