type t = {
  n : int;
  cdf : float array;  (* cdf.(r) = P(rank <= r); cdf.(n-1) = 1.0 *)
}

let create ~n ~alpha =
  if n < 1 then invalid_arg "Zipf.create: n < 1";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) alpha);
    cdf.(r) <- !acc
  done;
  let total = !acc in
  for r = 0 to n - 1 do
    cdf.(r) <- cdf.(r) /. total
  done;
  cdf.(n - 1) <- 1.0;
  { n; cdf }

let n t = t.n

let probability t r =
  if r < 0 || r >= t.n then invalid_arg "Zipf.probability: rank out of range";
  if r = 0 then t.cdf.(0) else t.cdf.(r) -. t.cdf.(r - 1)

let sample t rng =
  let u = float_of_int (Rng.bits53 rng) /. 0x1p53 in
  (* Binary search for the first index with cdf >= u. *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo
