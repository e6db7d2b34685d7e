module Clock = Gc_prof.Clock

type policy = {
  max_attempts : int;
  base_delay : float;
  max_delay : float;
  jitter : float;
  budget : float option;
}

let default =
  {
    max_attempts = 4;
    base_delay = 0.05;
    max_delay = 2.;
    jitter = 0.25;
    budget = None;
  }

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

type 'e give_up = {
  attempts : int;
  last_error : 'e;
  budget_spent : bool;
}

let run ?(policy = default) ~sleep ~rng ~retryable f =
  if policy.max_attempts < 1 then
    invalid_arg "Retry.run: max_attempts must be >= 1";
  let deadline = Option.map (fun b -> Clock.now_s () +. b) policy.budget in
  let out_of_budget () =
    match deadline with None -> false | Some d -> Clock.now_s () >= d
  in
  let rec go attempt =
    match f ~attempt with
    | Ok v -> Ok v
    | Error e ->
        if not (retryable e) then
          Error { attempts = attempt; last_error = e; budget_spent = false }
        else if attempt >= policy.max_attempts then
          Error { attempts = attempt; last_error = e; budget_spent = false }
        else if out_of_budget () then
          Error { attempts = attempt; last_error = e; budget_spent = true }
        else begin
          let d = delay_for policy ~rng ~attempt in
          (* Never sleep past the budget: trim the delay to what is left,
             and if nothing is, report the budget as the stopper. *)
          let d =
            match deadline with
            | None -> d
            | Some dl -> Float.min d (dl -. Clock.now_s ())
          in
          if d > 0. then sleep d;
          if out_of_budget () then
            Error { attempts = attempt; last_error = e; budget_spent = true }
          else go (attempt + 1)
        end
  in
  go 1
