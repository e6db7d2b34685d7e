type t = { cap : float; mutable level : float; mutable n_denied : int }

(* One free retry per five successes, steady-state. *)
let refill_per_success = 0.2

let create ?(capacity = 10.) () =
  if not (Float.is_finite capacity) then
    invalid_arg "Token_bucket.create: capacity is not finite";
  if capacity <= 0. then invalid_arg "Token_bucket.create: capacity <= 0";
  { cap = capacity; level = capacity; n_denied = 0 }

(* Every mutation funnels through this clamp, so accumulated float error
   (e.g. thousands of fractional refills against a fractional capacity)
   can never carry [level] outside [0, cap] — not even by one ulp. *)
let clamp t =
  if t.level > t.cap then t.level <- t.cap;
  if t.level < 0. then t.level <- 0.

let try_take t =
  if t.level >= 1. then begin
    t.level <- t.level -. 1.;
    clamp t;
    true
  end
  else begin
    t.n_denied <- t.n_denied + 1;
    false
  end

let on_success t =
  t.level <- t.level +. refill_per_success;
  clamp t

let tokens t = t.level
let capacity t = t.cap
let denied t = t.n_denied
