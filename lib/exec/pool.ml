module Clock = Gc_prof.Clock
module Tracer = Gc_prof.Tracer

exception Transient of string

let attempt_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 1)
let attempt () = Domain.DLS.get attempt_key

type 'a outcome =
  | Done of 'a
  | Failed of exn
  | Timed_out of float
  | Cancelled

type config = {
  domains : int;
  deadline : float option;
  grace : float;
  retries : int;
  backoff : float;
  tick : float;
}

let default_config () =
  {
    domains = max 1 (Domain.recommended_domain_count () - 1);
    deadline = None;
    grace = 0.25;
    retries = 1;
    backoff = 0.05;
    tick = 0.002;
  }

(* sleepf can be interrupted by the very SIGINT we are supervising — and
   under a signal storm, repeatedly.  Retry the *remaining* duration so
   monitor ticks and backoff sleeps keep their intended length instead of
   collapsing to busy-spins. *)
let nap s =
  let until = Clock.now_s () +. s in
  let rec go remaining =
    if remaining > 0. then
      match Unix.sleepf remaining with
      | () -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          go (until -. Clock.now_s ())
  in
  go s

(* Worker domains outlive the [run] that started them.  A domain serves
   one task at a time and goes back on [idle] as its task settles, so the
   next task anywhere in the process reuses it instead of spawning: a
   fresh domain costs a thread, a newly committed minor heap (a page fault
   for every 4 KiB its task allocates) and a stop-the-world at its exit,
   which on a small host outweighs a short task's own work and varies with
   the other tenants' load.  A domain whose task is abandoned serves no
   other task until that one ends, and is reaped at exit if it never does. *)
type worker = {
  wmu : Mutex.t;
  wake : Condition.t;
  mutable job : (unit -> unit) option;
}

let idle : worker list ref = ref []
let idle_mu = Mutex.create ()

let release w =
  Mutex.lock idle_mu;
  idle := w :: !idle;
  Mutex.unlock idle_mu

let rec serve w =
  Mutex.lock w.wmu;
  let rec next () =
    match w.job with
    | Some job ->
        w.job <- None;
        job
    | None ->
        Condition.wait w.wake w.wmu;
        next ()
  in
  let job = next () in
  Mutex.unlock w.wmu;
  job ();
  serve w

(* [job] is handed the worker's release, which it calls before publishing
   its outcome: by the time the monitor sees the outcome, the domain is
   idle again. *)
let dispatch job =
  Mutex.lock idle_mu;
  let w = match !idle with w :: rest -> idle := rest; Some w | [] -> None in
  Mutex.unlock idle_mu;
  match w with
  | Some w ->
      Mutex.lock w.wmu;
      w.job <- Some (fun () -> job (fun () -> release w));
      Condition.signal w.wake;
      Mutex.unlock w.wmu
  | None ->
      let rec w =
        {
          wmu = Mutex.create ();
          wake = Condition.create ();
          job = Some (fun () -> job (fun () -> release w));
        }
      in
      ignore (Domain.spawn (fun () -> serve w) : unit Domain.t)

type 'a slot = {
  idx : int;
  cell : 'a outcome option Atomic.t;
  cancel : Cancel.t;
  started : float Atomic.t;
}

(* Runs inside a worker domain.  Everything is caught: the domain itself
   never raises, so it always goes back to serving.  The pool is the
   supervisor — converting Cancelled and Transient into outcomes (after
   handling them) is its job, so the catch-alls below are the one
   sanctioned place cancellation stops propagating. *)
let worker config task idx cancel started cell release =
  let classify_cancel reason =
    if reason = Cancel.deadline_reason then
      Timed_out (Option.value config.deadline ~default:0.)
    else Cancelled
  in
  (* Task-lifecycle spans: one "pool.task" per task with a
     "pool.attempt" child per try, so a Perfetto track shows queue,
     retries and backoff gaps structurally.  Args are only built when
     tracing is on; disabled tracing costs one atomic load per span. *)
  let task_tok =
    Tracer.enter
      ~args:
        (if Tracer.enabled () then [ ("task", string_of_int idx) ] else [])
      "pool.task"
  in
  let attempt_span i =
    Tracer.enter
      ~args:
        (if Tracer.enabled () then
           [ ("task", string_of_int idx); ("attempt", string_of_int i) ]
         else [])
      "pool.attempt"
  in
  (* One attempt: [Ok] carries the settled outcome, [Error] a [Transient]
     failure, the only kind {!Retry} repeats.  A token requested during
     the backoff settles the task instead of starting another attempt. *)
  let try_once ~attempt:i =
    if i > 1 && Cancel.requested cancel then
      Ok (classify_cancel (Option.value (Cancel.reason cancel) ~default:""))
    else begin
      Domain.DLS.set attempt_key i;
      Atomic.set started (Clock.now_s ());
      let att = attempt_span i in
      match Cancel.with_current cancel (fun () -> task ~cancel) with
      | v ->
          Tracer.leave att;
          Ok (Done v)
      | exception Cancel.Cancelled reason ->
          Tracer.leave att;
          Ok (classify_cancel reason)
      | exception (Transient _ as e) ->
          Tracer.leave att;
          Error e
      | exception exn ->
          Tracer.leave att;
          Ok (Failed exn)
    end
  in
  (* backoff * 2^(i-1) after failed attempt i: no jitter (so the rng's
     draws do not matter), no cap.  The deadline clock restarts when the
     sleep starts and again with the next attempt. *)
  let policy =
    {
      Retry.max_attempts = max 1 (config.retries + 1);
      base_delay = config.backoff;
      max_delay = Float.infinity;
      jitter = 0.;
    }
  in
  let sleep d =
    Atomic.set started (Clock.now_s ());
    nap d
  in
  let outcome =
    match
      Retry.run ~policy ~sleep ~rng:(Gc_trace.Rng.create 0)
        ~retryable:(fun _ -> true) try_once
    with
    | Ok o -> o
    | Error { Retry.last_error; _ } -> Failed last_error
    | exception exn -> Failed exn
  in
  Tracer.leave task_tok;
  release ();
  Atomic.set cell (Some outcome)
[@@lint.allow "swallowed-cancellation"]

let run ?config ?interrupt ?on_start ?on_outcome tasks =
  let config = match config with Some c -> c | None -> default_config () in
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let results = Array.make n None in
  let settle idx o =
    (* An abandoned task's late completion must not overwrite the timeout
       already recorded for it. *)
    if results.(idx) = None then begin
      results.(idx) <- Some o;
      match on_outcome with Some f -> f idx o | None -> ()
    end
  in
  let interrupted () =
    match interrupt with Some t -> Cancel.requested t | None -> false
  in
  let max_workers = max 1 (min config.domains (max n 1)) in
  let running = ref [] in
  let next = ref 0 in
  (* All tasks enter the queue when [run] is called; the "pool.queued"
     span for task [idx] stretches from here to its dispatch. *)
  let queued_ns = if Tracer.enabled () then Clock.now_ns () else 0 in
  let rec loop () =
    let now = Clock.now_s () in
    let progressed = ref false in
    let still =
      List.filter
        (fun s ->
          match Atomic.get s.cell with
          | Some o ->
              settle s.idx o;
              progressed := true;
              false
          | None -> true)
        !running
    in
    let still =
      match config.deadline with
      | None -> still
      | Some d ->
          List.filter
            (fun s ->
              let elapsed = now -. Atomic.get s.started in
              if elapsed > d then
                Cancel.request s.cancel ~reason:Cancel.deadline_reason;
              if elapsed > d +. config.grace then begin
                (* The task never reached a cancellation point: abandon its
                   domain (it takes no other task until this one ends; the
                   process exit reaps it) so the rest of the grid keeps
                   moving. *)
                settle s.idx (Timed_out d);
                progressed := true;
                false
              end
              else true)
            still
    in
    running := still;
    while
      List.length !running < max_workers && !next < n && not (interrupted ())
    do
      let idx = !next in
      incr next;
      let cancel = Cancel.create () in
      (* Expose the task's token before it runs, so an external
         event (a client disconnect, say) can never race the launch and
         miss its chance to cancel. *)
      (match on_start with Some f -> f idx cancel | None -> ());
      if Tracer.enabled () then
        Tracer.emit
          ~args:[ ("task", string_of_int idx) ]
          ~ts_ns:queued_ns
          ~dur_ns:(Clock.now_ns () - queued_ns)
          "pool.queued";
      let started = Atomic.make (Clock.now_s ()) in
      let cell = Atomic.make None in
      dispatch (worker config tasks.(idx) idx cancel started cell);
      running := { idx; cell; cancel; started } :: !running;
      progressed := true
    done;
    if !running = [] && (!next >= n || interrupted ()) then
      for i = 0 to n - 1 do
        if results.(i) = None then settle i Cancelled
      done
    else begin
      if not !progressed then nap config.tick;
      loop ()
    end
  in
  if n > 0 then loop ();
  Array.to_list
    (Array.map (function Some o -> o | None -> assert false) results)
