(* The splitmix64 counter lives in eight bytes rather than in a mutable
   [int64] field, which would box a fresh value on every draw.  With the
   draws inlined, a trace generator's loop allocates nothing per sample. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* splitmix64 finalizer: mix the counter into a well-distributed output. *)
let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t =
  (* Derive a seed from the parent stream, then re-mix with a distinct
     constant so parent and child sequences do not overlap. *)
  let s = int64 t in
  of_state (Int64.logxor s 0xA5A5A5A5A5A5A5A5L)

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (int64 t) mask) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (int64 t) 11)
let[@inline] float t bound = float_of_int (bits53 t) /. 0x1p53 *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let sample_without_replacement t n bound =
  if n > bound then invalid_arg "Rng.sample_without_replacement: n > bound";
  if n * 3 >= bound then begin
    (* Dense case: shuffle a full range and take a prefix. *)
    let all = Array.init bound (fun i -> i) in
    shuffle t all;
    Array.sub all 0 n
  end else begin
    (* Sparse case: rejection sampling into a hash set. *)
    let seen = Hashtbl.create (2 * n) in
    let out = Array.make n 0 in
    let filled = ref 0 in
    while !filled < n do
      let v = int t bound in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
