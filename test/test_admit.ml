(* The admission-control toolkit under test: the success-coupled retry
   token bucket (never exceeds its budget, refills only on success,
   deterministic — no hidden clock or rng), deadline propagation (no
   verdict ever exceeds the server deadline or the remaining client
   budget, and a lapsed budget is always Expired), the retry_after_ms
   hint jitter (seeded, bounded, replayable), the deque against a list
   model, and the AIMD limiter's clamps.

   The qcheck groups honour GC_FUZZ_COUNT like the other fuzz suites;
   `dune build @fuzz` raises the corpus to 25k cases. *)

module Token_bucket = Gc_admit.Token_bucket
module Deadline = Gc_admit.Deadline
module Deque = Gc_admit.Deque
module Aimd = Gc_admit.Aimd
module Codel = Gc_admit.Codel
module Rng = Gc_trace.Rng

let fuzz_count =
  match Option.bind (Sys.getenv_opt "GC_FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 2500

let fuzz name gen prop = Test_util.qcheck ~count:fuzz_count name gen prop

(* ----------------------------------------------------- token bucket *)

(* An op sequence for the bucket: [true] = try_take, [false] = on_success. *)
let arbitrary_ops =
  QCheck.(list_of_size Gen.(int_range 0 200) bool)

let replay ops b =
  List.map
    (fun take ->
      if take then Token_bucket.try_take b
      else begin
        Token_bucket.on_success b;
        false
      end)
    ops

let fuzz_bucket_never_exceeds =
  fuzz "bucket: takes never exceed initial + refills" arbitrary_ops (fun ops ->
      let b = Token_bucket.create ~capacity:10. () in
      let taken = ref 0 and successes = ref 0 in
      List.iter
        (fun take ->
          if take then begin
            if Token_bucket.try_take b then incr taken
          end
          else begin
            Token_bucket.on_success b;
            incr successes
          end)
        ops;
      (* Every grant is covered by the initial 10 tokens plus what the
         successes refilled — the budget is never overdrawn. *)
      Float.of_int !taken
      <= 10. +. (0.2 *. Float.of_int !successes) +. 1e-9)

let fuzz_bucket_level_bounded =
  fuzz "bucket: level stays within [0, capacity]" arbitrary_ops (fun ops ->
      let b = Token_bucket.create ~capacity:10. () in
      List.for_all
        (fun take ->
          if take then ignore (Token_bucket.try_take b)
          else Token_bucket.on_success b;
          let level = Token_bucket.tokens b in
          level >= -1e-9 && level <= Token_bucket.capacity b +. 1e-9)
        ops)

let fuzz_bucket_exact_cap =
  (* The drift clamp's contract, with no epsilon: whatever fractional
     capacity is in play, and however takes and 0.2-token refills
     interleave, the level never leaves [0, capacity] — not even by one
     ulp of accumulated float error. *)
  fuzz "bucket: fractional refills never carry the level past capacity"
    QCheck.(pair (float_range 0.5 20.) arbitrary_ops)
    (fun (capacity, ops) ->
      let b = Token_bucket.create ~capacity () in
      List.for_all
        (fun take ->
          if take then ignore (Token_bucket.try_take b)
          else Token_bucket.on_success b;
          let level = Token_bucket.tokens b in
          level >= 0. && level <= Token_bucket.capacity b)
        ops)

let fuzz_bucket_deterministic =
  fuzz "bucket: same ops, same grants (no hidden clock)" arbitrary_ops
    (fun ops ->
      let mk () = Token_bucket.create ~capacity:10. () in
      replay ops (mk ()) = replay ops (mk ()))

let successes b n =
  for _ = 1 to n do
    Token_bucket.on_success b
  done

let test_bucket_refills_on_success () =
  let b = Token_bucket.create ~capacity:2. () in
  Alcotest.(check bool) "take 1" true (Token_bucket.try_take b);
  Alcotest.(check bool) "take 2" true (Token_bucket.try_take b);
  Alcotest.(check bool) "empty" false (Token_bucket.try_take b);
  Alcotest.(check int) "denial counted" 1 (Token_bucket.denied b);
  (* 0.2 tokens per success: four successes are not yet a retry, the
     fifth is. *)
  successes b 4;
  Alcotest.(check bool) "not yet refilled" false (Token_bucket.try_take b);
  successes b 1;
  Alcotest.(check bool) "refilled" true (Token_bucket.try_take b);
  (* Refill saturates at capacity: fifteen successes cannot bank more
     than two takes. *)
  successes b 15;
  Alcotest.(check bool) "take a" true (Token_bucket.try_take b);
  Alcotest.(check bool) "take b" true (Token_bucket.try_take b);
  Alcotest.(check bool) "capped" false (Token_bucket.try_take b)

(* -------------------------------------------------------- deadlines *)

let arbitrary_deadline_case =
  QCheck.(
    triple (float_range 0.01 10.)
      (option (int_range 1 5_000))
      (float_range 0. 10.))

let fuzz_deadline_never_exceeds =
  fuzz "deadline: verdict never exceeds server or remaining budget"
    arbitrary_deadline_case (fun (server_deadline, budget_ms, sojourn) ->
      match Deadline.effective ~server_deadline ~budget_ms ~sojourn with
      | Deadline.Expired -> (
          (* Only a lapsed budget expires a job. *)
          match budget_ms with
          | None -> false
          | Some b -> Float.of_int b /. 1000. -. sojourn <= 0.)
      | Deadline.Within d -> (
          d > 0.
          && d <= server_deadline +. 1e-9
          &&
          match budget_ms with
          | None -> d = server_deadline
          | Some b -> d <= (Float.of_int b /. 1000.) -. sojourn +. 1e-9))

let fuzz_deadline_lapsed_is_expired =
  fuzz "deadline: a lapsed budget is always Expired, never Within"
    QCheck.(pair (int_range 1 5_000) (float_range 0. 10.))
    (fun (budget_ms, extra) ->
      let sojourn = (Float.of_int budget_ms /. 1000.) +. extra in
      Deadline.effective ~server_deadline:60. ~budget_ms:(Some budget_ms)
        ~sojourn
      = Deadline.Expired)

let fuzz_hint_bounded_and_seeded =
  fuzz "deadline: retry_after_ms is bounded and replayable"
    QCheck.(pair (int_range 1 10_000) small_nat)
    (fun (base_ms, seed) ->
      let draw () =
        let rng = Rng.create seed in
        List.init 16 (fun _ -> Deadline.retry_after_ms rng ~base_ms)
      in
      let a = draw () and b = draw () in
      a = b
      && List.for_all
           (fun ms ->
             let lo = max 1 (base_ms / 2) in
             ms >= lo && ms <= lo + base_ms)
           a)

(* ------------------------------------------------------------ deque *)

(* Ops: 0 = push_back, 1 = pop_front, 2 = pop_back, replayed against a
   plain-list model. *)
let arbitrary_deque_ops =
  QCheck.(list_of_size Gen.(int_range 0 200) (int_range 0 2))

let fuzz_deque_vs_model =
  fuzz "deque: matches the list model" arbitrary_deque_ops (fun ops ->
      let d = Deque.create () in
      let model = ref [] in
      let next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
              incr next;
              Deque.push_back d !next;
              model := !model @ [ !next ];
              Deque.length d = List.length !model
          | 1 -> (
              let got = Deque.pop_front_opt d in
              match !model with
              | [] -> got = None
              | x :: rest ->
                  model := rest;
                  got = Some x)
          | _ -> (
              let got = Deque.pop_back_opt d in
              match List.rev !model with
              | [] -> got = None
              | x :: rest_rev ->
                  model := List.rev rest_rev;
                  got = Some x))
        ops)

(* ------------------------------------------------------------- aimd *)

(* Ops: [true] = on_success, [false] = on_congestion at a strictly
   advancing clock (every congestion lands outside the cooldown). *)
let arbitrary_aimd_ops =
  QCheck.(list_of_size Gen.(int_range 0 300) bool)

let fuzz_aimd_bounded =
  fuzz "aimd: limit stays within [min, max]" arbitrary_aimd_ops (fun ops ->
      let a = Aimd.create ~max_limit:16 () in
      let now = ref 0. in
      List.for_all
        (fun success ->
          if success then Aimd.on_success a
          else begin
            now := !now +. 1.;
            Aimd.on_congestion a ~now:!now
          end;
          let l = Aimd.limit a in
          l >= 1 && l <= 16)
        ops)

let test_aimd_shape () =
  let a = Aimd.create ~cooldown:1. ~max_limit:10 () in
  Alcotest.(check int) "starts wide" 10 (Aimd.limit a);
  Aimd.on_congestion a ~now:10.;
  Alcotest.(check int) "cut to 0.7" 7 (Aimd.limit a);
  (* Inside the cooldown a second congestion signal is the same incident
     and must not cut again. *)
  Aimd.on_congestion a ~now:10.5;
  Alcotest.(check int) "cooldown holds" 7 (Aimd.limit a);
  Aimd.on_congestion a ~now:11.5;
  Alcotest.(check int) "cut again, floored" 4 (Aimd.limit a);
  for _ = 1 to 100 do
    Aimd.on_success a
  done;
  Alcotest.(check int) "additive recovery reaches max" 10 (Aimd.limit a)

(* ------------------------------------------------------------ codel *)

let test_codel_below_target_never_sheds () =
  let c = Codel.create ~target:0.1 ~interval:0.5 in
  for i = 0 to 999 do
    let now = Float.of_int i *. 0.01 in
    match Codel.on_dequeue c ~now ~sojourn:0.05 with
    | Codel.Serve -> ()
    | Codel.Shed -> Alcotest.fail "shed below target"
  done;
  Alcotest.(check bool) "never overloaded" false (Codel.overloaded c)

let test_codel_sustained_overload_sheds () =
  let c = Codel.create ~target:0.1 ~interval:0.5 in
  let sheds = ref 0 in
  for i = 0 to 99 do
    let now = Float.of_int i *. 0.25 in
    match Codel.on_dequeue c ~now ~sojourn:1.0 with
    | Codel.Shed -> incr sheds
    | Codel.Serve -> ()
  done;
  Alcotest.(check bool) "sheds under sustained overload" true (!sheds > 0);
  Alcotest.(check bool) "reports overloaded" true (Codel.overloaded c);
  (* Recovery: once sojourns drop below target the dropping state ends. *)
  (match Codel.on_dequeue c ~now:100. ~sojourn:0.01 with
  | Codel.Serve -> ()
  | Codel.Shed -> Alcotest.fail "shed a below-target dequeue");
  Alcotest.(check bool) "recovers" false (Codel.overloaded c)

let test_codel_disabled () =
  let c = Codel.create ~target:0. ~interval:0.5 in
  Alcotest.(check bool) "disabled" false (Codel.enabled c);
  for i = 0 to 99 do
    match Codel.on_dequeue c ~now:(Float.of_int i) ~sojourn:100. with
    | Codel.Serve -> ()
    | Codel.Shed -> Alcotest.fail "a disabled controller must never shed"
  done

(* -------------------------------------------------------------- run *)

let () =
  Alcotest.run "admit"
    [
      ( "unit",
        [
          Alcotest.test_case "bucket-refill" `Quick
            test_bucket_refills_on_success;
          Alcotest.test_case "aimd-shape" `Quick test_aimd_shape;
          Alcotest.test_case "codel-below-target" `Quick
            test_codel_below_target_never_sheds;
          Alcotest.test_case "codel-overload" `Quick
            test_codel_sustained_overload_sheds;
          Alcotest.test_case "codel-disabled" `Quick test_codel_disabled;
        ] );
      ( "fuzz",
        [
          fuzz_bucket_never_exceeds;
          fuzz_bucket_level_bounded;
          fuzz_bucket_exact_cap;
          fuzz_bucket_deterministic;
          fuzz_deadline_never_exceeds;
          fuzz_deadline_lapsed_is_expired;
          fuzz_hint_bounded_and_seeded;
          fuzz_deque_vs_model;
          fuzz_aimd_bounded;
        ] );
    ]
