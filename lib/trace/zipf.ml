type t = {
  n : int;
  cdf : float array;  (* cdf.(r) = P(rank <= r); cdf.(n-1) = 1.0 *)
  guide : int array;  (* guide.(c) = first rank with cdf >= c / 2^bits *)
  shift : int;  (* 53 - bits: a draw's top [bits] bits name its cell *)
}

let rec log2_ceil n b = if 1 lsl b >= n then b else log2_ceil n (b + 1)

let create ~n ~alpha =
  if n < 1 then invalid_arg "Zipf.create: n < 1";
  if not (Float.is_finite alpha) then invalid_arg "Zipf.create: alpha is not finite";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) alpha);
    cdf.(r) <- !acc
  done;
  let total = !acc in
  (* A strongly negative alpha overflows the weights, and inf / inf would
     put NaN into the CDF. *)
  if not (Float.is_finite total) then invalid_arg "Zipf.create: weights overflow";
  for r = 0 to n - 1 do
    cdf.(r) <- cdf.(r) /. total
  done;
  cdf.(n - 1) <- 1.0;
  (* A guide table over 2^bits >= n equal-probability cells: a draw [u]
     in cell [c] has [u >= c / 2^bits], so no rank before [guide.(c)] can
     answer it, and with at least n cells a walk from there passes under
     two ranks on average.  Every walk stops by rank n - 1, whose cdf of
     1.0 exceeds every bound and every draw. *)
  let bits = log2_ceil n 0 in
  let cells = 1 lsl bits in
  let guide = Array.make cells 0 in
  let r = ref 0 in
  for c = 0 to cells - 1 do
    let bound = float_of_int c /. float_of_int cells in
    while cdf.(!r) < bound do
      incr r
    done;
    guide.(c) <- !r
  done;
  { n; cdf; guide; shift = 53 - bits }

let n t = t.n

let probability t r =
  if r < 0 || r >= t.n then invalid_arg "Zipf.probability: rank out of range";
  if r = 0 then t.cdf.(0) else t.cdf.(r) -. t.cdf.(r - 1)

(* The first rank with cdf >= u, as a binary search over [cdf] finds it:
   a forward walk from the guide entry of the cell [u] falls in. *)
let sample t rng =
  let bits = Rng.bits53 rng in
  let u = float_of_int bits /. 0x1p53 in
  let r = ref t.guide.(bits lsr t.shift) in
  while t.cdf.(!r) < u do
    incr r
  done;
  !r
