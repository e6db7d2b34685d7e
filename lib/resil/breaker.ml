module Clock = Gc_prof.Clock

type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type config = {
  window : int;
  min_samples : int;
  failure_threshold : float;
  cooldown : float;
}

let default_config =
  { window = 20; min_samples = 5; failure_threshold = 0.5; cooldown = 1. }

type t = {
  cfg : config;
  mu : Mutex.t;
  ring : bool array;  (** [true] = failure. *)
  mutable filled : int;  (** Valid entries, [<= window]. *)
  mutable next : int;  (** Ring write cursor. *)
  mutable st : state;
  mutable opened_at : float;  (** Monotonic; meaningful while [Open]. *)
  mutable probe_inflight : bool;  (** The single half-open probe slot. *)
}

let create ?(config = default_config) () =
  if config.window < 1 then invalid_arg "Breaker.create: window must be >= 1";
  if config.failure_threshold < 0. || config.failure_threshold > 1. then
    invalid_arg "Breaker.create: failure_threshold must be in [0, 1]";
  {
    cfg = config;
    mu = Mutex.create ();
    ring = Array.make config.window false;
    filled = 0;
    next = 0;
    st = Closed;
    opened_at = 0.;
    probe_inflight = false;
  }

let locked t f =
  Mutex.lock t.mu;
  let v = f () in
  Mutex.unlock t.mu;
  v

let rate_locked t =
  if t.filled = 0 then 0.
  else begin
    let failures = ref 0 in
    for i = 0 to t.filled - 1 do
      if t.ring.(i) then incr failures
    done;
    Float.of_int !failures /. Float.of_int t.filled
  end

let reset_window_locked t =
  t.filled <- 0;
  t.next <- 0

let allow t =
  locked t (fun () ->
      match t.st with
      | Closed -> true
      | Half_open ->
          (* One probe at a time; concurrent callers fail fast until it
             reports. *)
          if t.probe_inflight then false
          else begin
            t.probe_inflight <- true;
            true
          end
      | Open ->
          if Clock.now_s () -. t.opened_at >= t.cfg.cooldown then begin
            t.st <- Half_open;
            t.probe_inflight <- true;
            true
          end
          else false)

let trip_locked t =
  t.st <- Open;
  t.opened_at <- Clock.now_s ();
  t.probe_inflight <- false;
  reset_window_locked t

let record t ~ok =
  locked t (fun () ->
      match t.st with
      | Half_open ->
          t.probe_inflight <- false;
          if ok then begin
            t.st <- Closed;
            reset_window_locked t
          end
          else trip_locked t
      | Open ->
          (* A straggler from before the trip; the window was reset, so
             just drop it. *)
          ()
      | Closed ->
          t.ring.(t.next) <- not ok;
          t.next <- (t.next + 1) mod t.cfg.window;
          if t.filled < t.cfg.window then t.filled <- t.filled + 1;
          if
            t.filled >= t.cfg.min_samples
            && rate_locked t >= t.cfg.failure_threshold
          then trip_locked t)

let state t = locked t (fun () -> t.st)
