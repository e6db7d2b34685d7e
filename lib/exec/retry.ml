type policy = {
  max_attempts : int;
  base_delay : float;
  max_delay : float;
  jitter : float;
}

let default = { max_attempts = 4; base_delay = 0.05; max_delay = 2.; jitter = 0.25 }

let delay_for policy ~rng ~attempt =
  let attempt = max 1 attempt in
  (* 2^(attempt-1) without overflow drama: the cap lands long before the
     exponent matters. *)
  let exp =
    if attempt > 32 then policy.max_delay
    else policy.base_delay *. Float.of_int (1 lsl (attempt - 1))
  in
  let d = Float.min policy.max_delay (Float.max 0. exp) in
  let jitter = Float.min 1. (Float.max 0. policy.jitter) in
  (* One rng draw per delay, even when jitter is 0, so the consumed
     stream — and therefore everything downstream of a split — does not
     depend on the jitter setting. *)
  let u = Gc_trace.Rng.float rng 1. in
  d *. (1. -. (jitter *. u))

type 'e give_up = { attempts : int; last_error : 'e }

let run ?(policy = default) ~sleep ~rng ~retryable f =
  if policy.max_attempts < 1 then
    invalid_arg "Retry.run: max_attempts must be >= 1";
  let rec go attempt =
    match f ~attempt with
    | Ok v -> Ok v
    | Error e ->
        if (not (retryable e)) || attempt >= policy.max_attempts then
          Error { attempts = attempt; last_error = e }
        else begin
          let d = delay_for policy ~rng ~attempt in
          if d > 0. then sleep d;
          go (attempt + 1)
        end
  in
  go 1
