type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

(* The outcomes remembered, the outcomes needed before the rate can trip,
   the failure fraction that opens, and the seconds open before the
   half-open probe. *)
let window = 20
let min_samples = 5
let failure_threshold = 0.5
let cooldown = 1.

type t = {
  mu : Mutex.t;
  ring : bool array;  (** [true] = failure. *)
  mutable filled : int;  (** Valid entries, [<= window]. *)
  mutable next : int;  (** Ring write cursor. *)
  mutable st : state;
  mutable opened_at : float;  (** Meaningful while [Open]. *)
  mutable probe_inflight : bool;  (** The single half-open probe slot. *)
}

let create () =
  {
    mu = Mutex.create ();
    ring = Array.make window false;
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

let allow t ~now =
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
          if now -. t.opened_at >= cooldown then begin
            t.st <- Half_open;
            t.probe_inflight <- true;
            true
          end
          else false)

let trip_locked t ~now =
  t.st <- Open;
  t.opened_at <- now;
  t.probe_inflight <- false;
  reset_window_locked t

let record t ~now ~ok =
  locked t (fun () ->
      match t.st with
      | Half_open ->
          t.probe_inflight <- false;
          if ok then begin
            t.st <- Closed;
            reset_window_locked t
          end
          else trip_locked t ~now
      | Open ->
          (* A straggler from before the trip; the window was reset, so
             just drop it. *)
          ()
      | Closed ->
          t.ring.(t.next) <- not ok;
          t.next <- (t.next + 1) mod window;
          if t.filled < window then t.filled <- t.filled + 1;
          if t.filled >= min_samples && rate_locked t >= failure_threshold
          then trip_locked t ~now)

let state t = locked t (fun () -> t.st)
