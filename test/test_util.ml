(** Shared helpers for the test suites. *)

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name gen prop)

(* A trivially correct list-based cache used as a reference model for the
   production policies.  [touch_on_hit] distinguishes LRU from FIFO. *)
module Reference_cache = struct
  type t = { k : int; mutable items : int list; touch_on_hit : bool }

  let create ~k ~touch_on_hit = { k; items = []; touch_on_hit }

  (* Returns true on hit. *)
  let access t x =
    if List.mem x t.items then begin
      if t.touch_on_hit then
        t.items <- x :: List.filter (fun y -> y <> x) t.items;
      true
    end
    else begin
      let items = x :: t.items in
      let items =
        if List.length items > t.k then
          List.filteri (fun idx _ -> idx < t.k) items
        else items
      in
      t.items <- items;
      false
    end

  let misses t requests =
    Array.fold_left
      (fun acc x -> if access t x then acc else acc + 1)
      0 requests
end

let run_misses policy trace =
  (Gc_cache.Simulator.run policy trace).Gc_cache.Metrics.misses

(* qcheck generator for a small random trace plus a block size. *)
let small_trace_gen ?(max_universe = 12) ?(max_len = 40) () =
  QCheck.Gen.(
    let* universe = int_range 1 max_universe in
    let* block_size = int_range 1 4 in
    let* len = int_range 1 max_len in
    let* requests = list_size (return len) (int_range 0 (universe - 1)) in
    return (block_size, Array.of_list requests))

let small_trace_arbitrary ?max_universe ?max_len () =
  QCheck.make
    ?print:
      (Some
         (fun (bs, reqs) ->
           Printf.sprintf "B=%d [%s]" bs
             (String.concat ";" (Array.to_list (Array.map string_of_int reqs)))))
    (small_trace_gen ?max_universe ?max_len ())

let trace_of (block_size, requests) =
  Gc_trace.Trace.make
    (Gc_trace.Block_map.uniform ~block_size)
    (Array.copy requests)

(* Unwrap a strict Trace_io decode; an error fails the test with its
   positioned diagnostic. *)
let decoded = function
  | Ok t -> t
  | Error e -> Alcotest.failf "decode: %s" (Gc_trace.Trace_io.string_of_error e)

let check_float ~eps msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

let check_rel ~rel msg expected actual =
  if expected = actual then ()
  else begin
    let denom = Float.max (Float.abs expected) 1e-9 in
    if Float.abs (expected -. actual) /. denom > rel then
      Alcotest.failf "%s: expected %.6f, got %.6f (rel err > %g)" msg expected
        actual rel
  end

(* ---------------------------------------------------- minimal JSON parser *)

(* Just enough of RFC 8259 to round-trip [Gc_obs.Json] output in tests:
   an independent decoder, so encoder bugs cannot cancel out. *)
module Json_parse = struct
  exception Error of string

  type state = { src : string; mutable pos : int }

  let fail s msg = raise (Error (Printf.sprintf "at %d: %s" s.pos msg))
  let peek s = if s.pos < String.length s.src then Some s.src.[s.pos] else None

  let advance s = s.pos <- s.pos + 1

  let rec skip_ws s =
    match peek s with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance s;
        skip_ws s
    | _ -> ()

  let expect s c =
    match peek s with
    | Some d when d = c -> advance s
    | _ -> fail s (Printf.sprintf "expected %C" c)

  let literal s word value =
    String.iter (fun c -> expect s c) word;
    value

  let parse_string s =
    expect s '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek s with
      | None -> fail s "unterminated string"
      | Some '"' -> advance s
      | Some '\\' ->
          advance s;
          (match peek s with
          | Some '"' -> Buffer.add_char buf '"'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some '/' -> Buffer.add_char buf '/'
          | Some 'b' -> Buffer.add_char buf '\b'
          | Some 'f' -> Buffer.add_char buf '\012'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'u' ->
              advance s;
              if s.pos + 4 > String.length s.src then fail s "short \\u escape";
              let hex = String.sub s.src s.pos 4 in
              s.pos <- s.pos + 3;
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail s "bad \\u escape"
              in
              (* The encoder only emits \u00XX (control characters). *)
              if code > 0xff then fail s "non-latin \\u escape unsupported"
              else Buffer.add_char buf (Char.chr code)
          | _ -> fail s "bad escape");
          advance s;
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance s;
          go ()
    in
    go ();
    Buffer.contents buf

  let parse_number s =
    let start = s.pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek s with Some c -> is_num_char c | None -> false) do
      advance s
    done;
    let text = String.sub s.src start (s.pos - start) in
    match int_of_string_opt text with
    | Some n -> Gc_obs.Json.Int n
    | None -> (
        match float_of_string_opt text with
        | Some f -> Gc_obs.Json.Float f
        | None -> fail s (Printf.sprintf "bad number %S" text))

  let rec parse_value s =
    skip_ws s;
    match peek s with
    | None -> fail s "unexpected end of input"
    | Some 'n' -> literal s "null" Gc_obs.Json.Null
    | Some 't' -> literal s "true" (Gc_obs.Json.Bool true)
    | Some 'f' -> literal s "false" (Gc_obs.Json.Bool false)
    | Some '"' -> Gc_obs.Json.String (parse_string s)
    | Some '[' ->
        advance s;
        skip_ws s;
        if peek s = Some ']' then begin
          advance s;
          Gc_obs.Json.Array []
        end
        else
          let rec items acc =
            let v = parse_value s in
            skip_ws s;
            match peek s with
            | Some ',' ->
                advance s;
                items (v :: acc)
            | Some ']' ->
                advance s;
                List.rev (v :: acc)
            | _ -> fail s "expected , or ]"
          in
          Gc_obs.Json.Array (items [])
    | Some '{' ->
        advance s;
        skip_ws s;
        if peek s = Some '}' then begin
          advance s;
          Gc_obs.Json.Obj []
        end
        else
          let rec fields acc =
            skip_ws s;
            let key = parse_string s in
            skip_ws s;
            expect s ':';
            let v = parse_value s in
            skip_ws s;
            match peek s with
            | Some ',' ->
                advance s;
                fields ((key, v) :: acc)
            | Some '}' ->
                advance s;
                List.rev ((key, v) :: acc)
            | _ -> fail s "expected , or }"
          in
          Gc_obs.Json.Obj (fields [])
    | Some _ -> parse_number s

  let parse text =
    let s = { src = text; pos = 0 } in
    let v = parse_value s in
    skip_ws s;
    if s.pos <> String.length text then fail s "trailing garbage";
    v
end

let parse_json = Json_parse.parse

let parse_json_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  Json_parse.parse text

let parse_jsonl_file path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (if line = "" then acc else Json_parse.parse line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------ shared golden fixtures *)

(* A fully deterministic manifest: fixed trace, fixed seed; consumers
   zero the volatile fields.  Shared between test_obs's golden check and
   regen_golden (which reprints the file after an intentional schema
   change), so the two can never drift apart. *)
let build_golden_manifest () =
  let blocks = Gc_trace.Block_map.uniform ~block_size:4 in
  let trace =
    Gc_trace.Trace.make blocks [| 0; 1; 4; 0; 5; 1; 8; 0; 4; 12 |]
  in
  let result =
    match
      Gc_cache.Obs_run.run_policy_result ~histograms:true ~k:8 ~seed:1 "iblp"
        trace
    with
    | Ok r -> r
    | Error f ->
        Alcotest.failf "golden run failed: %s" f.Gc_cache.Obs_run.message
  in
  Gc_cache.Obs_run.manifest_of_outcomes ~tool:"gcsim" ~command:"run" ~seed:1
    ~k:8
    ~trace:(Gc_cache.Obs_run.trace_info ~path:"golden.gct" trace)
    ~wall_time_s:123.456 [ Ok result ]

(* Hand-built span records with fixed timestamps: the input both to the
   Chrome-export golden check in test_prof and to regen_golden.  Covers
   nesting on one track, a second track, minor-word args, caller args,
   and an emitted (zero-word) span; kept sorted by start time like a real
   [Tracer.dump]. *)
let chrome_fixture_spans =
  let span ?(args = []) ?(minor = 0) ~tid ~ts_ns ~dur_ns name =
    { Gc_prof.Tracer.name; tid; ts_ns; dur_ns; minor_words = minor; args }
  in
  [
    span ~tid:0 ~ts_ns:1_000 ~dur_ns:9_500_000 "run_policy"
      ~args:[ ("policy", "lru"); ("k", "256") ]
      ~minor:80_000;
    span ~tid:0 ~ts_ns:2_000 ~dur_ns:4_000_000 "sim.chunk" ~minor:40_000;
    span ~tid:1 ~ts_ns:1_500_000 ~dur_ns:2_500_000 "pool.task"
      ~args:[ ("task", "3") ]
      ~minor:1_024;
    span ~tid:1 ~ts_ns:3_000_000 ~dur_ns:750_000 "queue-wait"
      ~args:[ ("id", "7") ];
  ]
