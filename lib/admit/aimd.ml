(* The limit never drops below one slot. *)
let min_limit = 1

type t = {
  max_limit : int;
  cooldown : float;
  mutable current : float;  (* fractional; [limit] floors it *)
  mutable next_decrease : float;  (* monotonic instant; -inf = armed *)
}

(* The multiplicative-decrease factor. *)
let beta = 0.7

let create ?(cooldown = 0.5) ~max_limit () =
  if max_limit < min_limit then invalid_arg "Aimd.create: max_limit < 1";
  {
    max_limit;
    cooldown = Float.max 0. cooldown;
    current = Float.of_int max_limit;
    next_decrease = Float.neg_infinity;
  }

let limit t =
  let l = int_of_float t.current in
  if l < min_limit then min_limit
  else if l > t.max_limit then t.max_limit
  else l

let on_success t =
  if t.current < Float.of_int t.max_limit then
    t.current <-
      Float.min (Float.of_int t.max_limit) (t.current +. (1. /. Float.max 1. t.current))

let on_congestion t ~now =
  if now >= t.next_decrease then begin
    t.current <- Float.max (Float.of_int min_limit) (t.current *. beta);
    t.next_decrease <- now +. t.cooldown
  end
