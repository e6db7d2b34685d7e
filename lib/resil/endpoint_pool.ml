module Client = Gc_serve.Client
module Rng = Gc_trace.Rng

type state = Up | Suspect | Down

let state_name = function Up -> "up" | Suspect -> "suspect" | Down -> "down"

type config = { reprobe_after : float; reprobe_max : float; p2c : bool }

let default_config = { reprobe_after = 0.5; reprobe_max = 10.; p2c = true }

(* The fixed part of the health machine: the first failure makes an
   endpoint Suspect, the third Down; re-probe delays carry 25% jitter;
   the latency EWMA weighs the newest sample 0.3. *)
let down_after = 3
let reprobe_jitter = 0.25
let ewma_alpha = 0.3

type endpoint = {
  e_addr : Client.addr;
  mutable e_state : state;
  mutable e_fails : int;  (* consecutive failures *)
  mutable e_ewma : float;  (* EWMA latency, seconds; < 0 = no samples *)
  mutable e_next_probe : float;  (* monotonic re-probe deadline *)
}

type t = {
  cfg : config;
  mu : Mutex.t;
  rng : Rng.t;
  eps : endpoint array;
  mutable cursor : int;  (* rotation cursor for the non-p2c path *)
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let create ?(config = default_config) ~seed addrs =
  if config.reprobe_after <= 0. || config.reprobe_max < config.reprobe_after
  then invalid_arg "Endpoint_pool.create: bad re-probe delays";
  if addrs = [] then invalid_arg "Endpoint_pool.create: no endpoints";
  let ep addr =
    { e_addr = addr; e_state = Up; e_fails = 0; e_ewma = -1.; e_next_probe = 0. }
  in
  {
    cfg = config;
    mu = Mutex.create ();
    rng = Rng.create seed;
    eps = Array.of_list (List.map ep addrs);
    cursor = -1;
  }

let length t = Array.length t.eps
let addr t i = t.eps.(i).e_addr
let state t i = locked t (fun () -> t.eps.(i).e_state)

(* ------------------------------------------------------------ routing *)

let indices_where t pred =
  let out = ref [] in
  for i = Array.length t.eps - 1 downto 0 do
    if pred i t.eps.(i) then out := i :: !out
  done;
  !out

(* Healthiest non-empty tier: Up first; then Suspect together with Down
   endpoints whose re-probe deadline has passed (live-traffic probes);
   last resort, anything Down.  [avoid] applies per tier and is dropped
   entirely when it would leave no endpoint at all. *)
let tier_of t ~now ~avoid =
  let eligible i = not (List.mem i avoid) in
  let try_tiers eligible =
    let up = indices_where t (fun i ep -> eligible i && ep.e_state = Up) in
    if up <> [] then up
    else
      let mid =
        indices_where t (fun i ep ->
            eligible i
            && (ep.e_state = Suspect
               || (ep.e_state = Down && now >= ep.e_next_probe)))
      in
      if mid <> [] then mid
      else indices_where t (fun i _ -> eligible i)
  in
  match try_tiers eligible with
  | [] -> try_tiers (fun _ -> true)
  | tier -> tier

let pick_rotation t tier =
  t.cursor <- t.cursor + 1;
  let arr = Array.of_list tier in
  arr.(t.cursor mod Array.length arr)

let pick ?(avoid = []) t ~now =
  locked t (fun () ->
      match tier_of t ~now ~avoid with
      | [] -> assert false (* pool is never empty *)
      | [ i ] -> i
      | tier ->
          let sampled =
            List.filter (fun i -> t.eps.(i).e_ewma >= 0.) tier
          in
          if (not t.cfg.p2c) || List.length sampled < 2 then
            pick_rotation t tier
          else begin
            (* Power of two choices: two distinct sampled candidates,
               keep the one with the faster EWMA (ties to the first). *)
            let arr = Array.of_list sampled in
            let n = Array.length arr in
            let a = Rng.int t.rng n in
            let b = (a + 1 + Rng.int t.rng (n - 1)) mod n in
            let ia = arr.(a) and ib = arr.(b) in
            if t.eps.(ib).e_ewma < t.eps.(ia).e_ewma then ib else ia
          end)

(* ----------------------------------------------------- health updates *)

let schedule_reprobe t ep ~now =
  (* Exponential backoff past the Down threshold, jittered so a replica
     set never synchronizes its probes. *)
  let over = max 0 (ep.e_fails - down_after) in
  let base =
    Float.min t.cfg.reprobe_max
      (t.cfg.reprobe_after *. Float.pow 2. (Float.of_int over))
  in
  let j = reprobe_jitter in
  let factor = 1. -. j +. (2. *. j *. Rng.float t.rng 1.) in
  ep.e_next_probe <- now +. (base *. factor)

let mark_up ep =
  ep.e_fails <- 0;
  ep.e_state <- Up

let mark_failed t ep ~now =
  ep.e_fails <- ep.e_fails + 1;
  ep.e_state <- (if ep.e_fails >= down_after then Down else Suspect);
  schedule_reprobe t ep ~now

let note_ok t i ~latency_s =
  locked t (fun () ->
      let ep = t.eps.(i) in
      mark_up ep;
      ep.e_ewma <-
        (if ep.e_ewma < 0. then latency_s
         else
           (ewma_alpha *. latency_s) +. ((1. -. ewma_alpha) *. ep.e_ewma)))

let note_failure t i ~now = locked t (fun () -> mark_failed t t.eps.(i) ~now)

let note_probe t i ~now ~ok =
  locked t (fun () ->
      let ep = t.eps.(i) in
      if ok then mark_up ep else mark_failed t ep ~now)

let due_probes t ~now =
  locked t (fun () ->
      indices_where t (fun _ ep -> ep.e_state <> Up && now >= ep.e_next_probe))
