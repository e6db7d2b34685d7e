open Gc_trace
open Gc_cache

let rng () = Rng.create 99

(* --------------------------------------------------------------- Lru_core *)

let test_lru_core_order () =
  let l = Lru_core.create () in
  List.iter (Lru_core.touch l) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "mru order" [ 3; 2; 1 ] (Lru_core.to_list_mru_first l);
  Lru_core.touch l 1;
  Alcotest.(check (list int)) "after touch" [ 1; 3; 2 ] (Lru_core.to_list_mru_first l);
  Alcotest.(check (option int)) "lru" (Some 2) (Lru_core.lru l);
  Alcotest.(check (option int)) "mru" (Some 1) (Lru_core.mru l);
  Lru_core.remove l 3;
  Alcotest.(check (list int)) "after remove" [ 1; 2 ] (Lru_core.to_list_mru_first l);
  Alcotest.(check int) "pop" 2 (Lru_core.pop_lru l);
  Alcotest.(check int) "pop" 1 (Lru_core.pop_lru l);
  Alcotest.(check int) "size" 0 (Lru_core.size l);
  match Lru_core.pop_lru l with
  | exception Assert_failure _ -> ()
  | v -> Alcotest.failf "popped %d from an empty list" v

let test_lru_core_insert_if_absent () =
  let l = Lru_core.create () in
  Lru_core.insert_if_absent l 1;
  Lru_core.insert_if_absent l 2;
  Lru_core.insert_if_absent l 1;
  Alcotest.(check (list int)) "no reorder" [ 2; 1 ] (Lru_core.to_list_mru_first l)

(* Mem/discard/remove properties in the style of cachecache's LRU tests,
   with a capacity on top: [add_fresh] touches a new key and drops the LRU
   key once [cap] is exceeded.  Keys spaced 2^40 apart share every low
   bit, so each property runs on them as well as on dense ones. *)
let cap = 10

let fresh_keys ~spaced =
  let next = ref 0 in
  fun () ->
    incr next;
    if spaced then !next lsl 40 else !next

let add_fresh l fresh =
  let key = fresh () in
  Lru_core.touch l key;
  if Lru_core.size l > cap then ignore (Lru_core.pop_lru l);
  key

(* Newest first. *)
let add_fresh_values ~spaced l n =
  let fresh = fresh_keys ~spaced in
  List.rev (List.init n (fun _ -> add_fresh l fresh))

let test_lru_core_mem () =
  List.iter
    (fun (spaced, n) ->
      let l = Lru_core.create () in
      let fresh = fresh_keys ~spaced in
      for _ = 1 to n do
        let key = add_fresh l fresh in
        Alcotest.(check bool) "value just added is found" true (Lru_core.mem l key);
        Alcotest.(check (option int)) "and is the MRU" (Some key) (Lru_core.mru l)
      done)
    [ (false, cap); (true, cap); (false, 2 * cap); (true, 2 * cap) ]

let rec split l n =
  match l with
  | x :: rest when n > 0 ->
      let a, b = split rest (n - 1) in
      (x :: a, b)
  | _ -> ([], l)

let test_lru_core_discard () =
  List.iter
    (fun spaced ->
      let l = Lru_core.create () in
      let still_present, removed = split (add_fresh_values ~spaced l (2 * cap)) cap in
      List.iter
        (fun k -> Alcotest.(check bool) "recent values are still present" true (Lru_core.mem l k))
        still_present;
      List.iter
        (fun k -> Alcotest.(check bool) "old values have been removed" false (Lru_core.mem l k))
        removed;
      Alcotest.(check (list int)) "order is recency" still_present (Lru_core.to_list_mru_first l))
    [ false; true ]

let test_lru_core_remove () =
  List.iter
    (fun spaced ->
      let l = Lru_core.create () in
      let still_present, _ = split (add_fresh_values ~spaced l (2 * cap)) cap in
      List.iteri (fun i k -> if i mod 2 = 0 then Lru_core.remove l k) still_present;
      List.iteri
        (fun i k ->
          Alcotest.(check bool)
            (if i mod 2 = 0 then "removed values are not present" else "other values are present")
            (i mod 2 <> 0) (Lru_core.mem l k))
        still_present;
      (* A removed key comes back as a fresh MRU entry. *)
      List.iteri (fun i k -> if i mod 2 = 0 then Lru_core.touch l k) still_present;
      Alcotest.(check int) "re-inserted" cap (Lru_core.size l);
      Alcotest.(check (option int)) "last re-insert is the MRU"
        (Some (List.nth still_present (cap - 2))) (Lru_core.mru l))
    [ false; true ]

(* Random operation sequences against a list model (MRU first), checking
   [size], [to_list_mru_first] and [mem] after every step.  Keys are drawn
   from 100 small ids and 100 spaced 2^40 apart: sequences of up to 500
   operations hold dozens of keys at once, so the store grows several
   times past its initial room for four keys and two chain heads, and
   keys that were removed come back into freed slots.  [add] requires an
   absent key, so an [Add] of a key the model holds is skipped. *)
type lru_op = Touch | Refresh | Insert | Add | Remove | Pop | Lru | Mru

let lru_op_name = function
  | Touch -> "touch"
  | Refresh -> "refresh"
  | Insert -> "insert_if_absent"
  | Add -> "add"
  | Remove -> "remove"
  | Pop -> "pop_lru"
  | Lru -> "lru"
  | Mru -> "mru"

let model_key i = if i < 100 then i else (i - 100) lsl 40
let model_lru model = match List.rev model with [] -> None | x :: _ -> Some x
let model_mru = function [] -> None | x :: _ -> Some x

(* Applies one step to both; returns the new model and whether the
   answers agree. *)
let lru_core_model_step l model (op, key) =
  let without k = List.filter (fun x -> x <> k) model in
  let model, agree =
    match op with
    | Touch ->
        Lru_core.touch l key;
        (key :: without key, true)
    | Refresh ->
        let present = List.mem key model in
        let got = Lru_core.refresh l key in
        ((if present then key :: without key else model), got = present)
    | Insert ->
        Lru_core.insert_if_absent l key;
        ((if List.mem key model then model else key :: model), true)
    | Add ->
        if List.mem key model then (model, true)
        else begin
          Lru_core.add l key;
          (key :: model, true)
        end
    | Remove ->
        Lru_core.remove l key;
        (without key, true)
    | Pop -> (
        (* [pop_lru] requires a non-empty list, as its callers ensure. *)
        match model_lru model with
        | None -> (model, true)
        | Some v -> (without v, Lru_core.pop_lru l = v))
    | Lru -> (model, Lru_core.lru l = model_lru model)
    | Mru -> (model, Lru_core.mru l = model_mru model)
  in
  ( model,
    agree
    && Lru_core.size l = List.length model
    && Lru_core.to_list_mru_first l = model
    && Lru_core.mem l key = List.mem key model )

let lru_core_model count =
  let op =
    QCheck.Gen.(
      pair
        (oneofl [ Touch; Refresh; Insert; Add; Remove; Pop; Lru; Mru ])
        (map model_key (int_range 0 199)))
  in
  Test_util.qcheck ~count "lru_core matches a list model"
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; " (List.map (fun (o, k) -> Printf.sprintf "%s %d" (lru_op_name o) k) ops))
       QCheck.Gen.(list_size (int_range 0 500) op))
    (fun ops ->
      let l = Lru_core.create () in
      let rec go model = function
        | [] -> true
        | step :: rest ->
            let model, agree = lru_core_model_step l model step in
            agree && go model rest
      in
      go [] ops)

let fuzz_count =
  match Option.bind (Sys.getenv_opt "GC_FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 1000

(* -------------------------------------------------------------- Int_table *)

(* [Hashtbl] picks a bucket from the low bits of the hash, which an
   identity hash takes from the key's low bits alone: keys spaced 2^40
   apart would all share one bucket. *)
let test_int_table_spread () =
  let t = Int_table.create 16 in
  let keys = 4_096 in
  for i = 0 to keys - 1 do
    Int_table.replace t (i lsl 40) i
  done;
  let found = ref 0 in
  for i = 0 to keys - 1 do
    if Int_table.find_opt t (i lsl 40) = Some i then incr found
  done;
  Alcotest.(check int) "every key found" keys !found;
  let s = Int_table.stats t in
  if s.Hashtbl.max_bucket_length > 8 then
    Alcotest.failf "%d keys spaced 2^40 apart: longest bucket %d of %d buckets, bound 8" keys
      s.Hashtbl.max_bucket_length s.Hashtbl.num_buckets

(* -------------------------------------------------------------- Index_set *)

let test_index_set () =
  let s = Index_set.create () in
  List.iter (Index_set.add s) [ 5; 7; 9; 7 ];
  Alcotest.(check int) "size dedups" 3 (Index_set.size s);
  Alcotest.(check bool) "mem" true (Index_set.mem s 7);
  Index_set.remove s 7;
  Alcotest.(check bool) "removed" false (Index_set.mem s 7);
  Index_set.remove s 7;
  Alcotest.(check int) "idempotent remove" 2 (Index_set.size s);
  let r = rng () in
  for _ = 1 to 50 do
    let v = Index_set.random s r in
    Alcotest.(check bool) "random member" true (v = 5 || v = 9)
  done;
  Index_set.clear s;
  Alcotest.(check int) "cleared" 0 (Index_set.size s)

(* ------------------------------------------------- policies vs references *)

let qcheck_lru_matches_reference =
  Test_util.qcheck ~count:300 "LRU matches list reference"
    (QCheck.pair (Test_util.small_trace_arbitrary ()) QCheck.(int_range 1 8))
    (fun ((bs, reqs), k) ->
      let trace = Test_util.trace_of (bs, reqs) in
      let reference = Test_util.Reference_cache.create ~k ~touch_on_hit:true in
      let expected = Test_util.Reference_cache.misses reference reqs in
      expected = Test_util.run_misses (Lru.create ~k) trace)

let qcheck_fifo_matches_reference =
  Test_util.qcheck ~count:300 "FIFO matches list reference"
    (QCheck.pair (Test_util.small_trace_arbitrary ()) QCheck.(int_range 1 8))
    (fun ((bs, reqs), k) ->
      let trace = Test_util.trace_of (bs, reqs) in
      let reference = Test_util.Reference_cache.create ~k ~touch_on_hit:false in
      let expected = Test_util.Reference_cache.misses reference reqs in
      expected = Test_util.run_misses (Fifo.create ~k) trace)

(* Tree-PLRU against hand-computed bit-tree traces (k = 4: a full
   two-level tree; k = 3: padded to 4 with a locked phantom way the
   victim walk must route around). *)
let test_plru_eviction_sequence () =
  let p = Plru.create ~k:4 in
  let feed x = ignore (Policy.access p x) in
  List.iter feed [ 10; 11; 12; 13 ];
  (* Fill order leaves all bits pointing left-left: victim is way 0. *)
  feed 14;
  Alcotest.(check bool) "10 evicted" false (Policy.mem p 10);
  List.iter
    (fun x -> Alcotest.(check bool) (string_of_int x ^ " kept") true (Policy.mem p x))
    [ 11; 12; 13; 14 ];
  (* Hitting 11 flips the root toward the right subtree; its bit says
     left, so the next victim is way 2 (item 12). *)
  feed 11;
  feed 15;
  Alcotest.(check bool) "12 evicted" false (Policy.mem p 12);
  List.iter
    (fun x -> Alcotest.(check bool) (string_of_int x ^ " kept") true (Policy.mem p x))
    [ 11; 13; 14; 15 ]

let test_plru_non_pow2 () =
  let p = Plru.create ~k:3 in
  let feed x = ignore (Policy.access p x) in
  List.iter feed [ 1; 2; 3 ];
  feed 4;
  (* Bits point left-left after the fill: way 0 (item 1) goes. *)
  Alcotest.(check bool) "1 evicted" false (Policy.mem p 1);
  (* Root now points right; the right subtree's bit also points right,
     but way 3 is a phantom, so the walk is forced back to way 2. *)
  feed 5;
  Alcotest.(check bool) "3 evicted" false (Policy.mem p 3);
  List.iter
    (fun x -> Alcotest.(check bool) (string_of_int x ^ " kept") true (Policy.mem p x))
    [ 2; 4; 5 ];
  Alcotest.(check int) "occupancy capped at 3" 3 (Policy.occupancy p)

let test_lfu_evicts_least_frequent () =
  let p = Lfu.create ~k:2 in
  let feed x = ignore (Policy.access p x) in
  feed 1;
  feed 1;
  feed 2;
  (* Cache {1(x2), 2(x1)}; loading 3 must evict 2. *)
  feed 3;
  Alcotest.(check bool) "1 kept" true (Policy.mem p 1);
  Alcotest.(check bool) "2 evicted" false (Policy.mem p 2);
  Alcotest.(check bool) "3 loaded" true (Policy.mem p 3)

let test_lfu_tie_breaks_lru () =
  let p = Lfu.create ~k:2 in
  let feed x = ignore (Policy.access p x) in
  feed 1;
  feed 2;
  (* Both frequency 1; 1 is older -> evicted. *)
  feed 3;
  Alcotest.(check bool) "older evicted" false (Policy.mem p 1);
  Alcotest.(check bool) "newer kept" true (Policy.mem p 2)

let test_clock_second_chance () =
  let p = Clock.create ~k:2 in
  let feed x = ignore (Policy.access p x) in
  feed 1;
  feed 2;
  feed 1 (* sets 1's reference bit *);
  feed 3 (* hand clears 1, evicts 2 *);
  Alcotest.(check bool) "referenced survives" true (Policy.mem p 1);
  Alcotest.(check bool) "unreferenced evicted" false (Policy.mem p 2)

let test_random_evict_occupancy () =
  let p = Random_evict.create ~k:4 ~rng:(rng ()) in
  for x = 0 to 99 do
    ignore (Policy.access p x)
  done;
  Alcotest.(check int) "occupancy capped" 4 (Policy.occupancy p)

(* ------------------------------------------------------------- Block_lru *)

let test_block_lru_loads_whole_block () =
  let blocks = Block_map.uniform ~block_size:4 in
  let p = Block_lru.create ~k:8 ~blocks in
  (match Policy.access p 1 with
  | Policy.Miss { loaded; _ } ->
      Alcotest.(check (list int)) "whole block" [ 0; 1; 2; 3 ] (List.sort compare loaded)
  | Policy.Hit _ -> Alcotest.fail "expected miss");
  Alcotest.(check bool) "sibling cached" true (Policy.mem p 3);
  Alcotest.(check int) "occupancy" 4 (Policy.occupancy p);
  ignore (Policy.access p 5);
  Alcotest.(check int) "two blocks" 8 (Policy.occupancy p);
  (* Third block evicts the LRU block (block 0). *)
  (match Policy.access p 9 with
  | Policy.Miss { evicted; _ } ->
      Alcotest.(check (list int)) "whole block evicted" [ 0; 1; 2; 3 ]
        (List.sort compare evicted)
  | Policy.Hit _ -> Alcotest.fail "expected miss");
  Alcotest.(check bool) "block 0 gone" false (Policy.mem p 1)

let test_block_lru_requires_space () =
  Alcotest.check_raises "k < B"
    (Invalid_argument "Block_lru.create: k smaller than block size") (fun () ->
      ignore (Block_lru.create ~k:3 ~blocks:(Block_map.uniform ~block_size:4)))

(* ------------------------------------------------------------------ IBLP *)

let test_iblp_degenerates_to_lru =
  Test_util.qcheck ~count:200 "IBLP with b=0 equals LRU"
    (QCheck.pair (Test_util.small_trace_arbitrary ()) QCheck.(int_range 1 8))
    (fun ((bs, reqs), k) ->
      let trace = Test_util.trace_of (bs, reqs) in
      let blocks = trace.Trace.blocks in
      let iblp = Iblp.create ~i:k ~b:0 ~blocks () in
      Test_util.run_misses iblp trace
      = Test_util.run_misses (Lru.create ~k) trace)

let test_iblp_degenerates_to_block_lru =
  Test_util.qcheck ~count:200 "IBLP with i=0 equals Block-LRU"
    (QCheck.pair
       (Test_util.small_trace_arbitrary ())
       QCheck.(int_range 1 4))
    (fun ((bs, reqs), kb) ->
      let k = kb * bs in
      let trace = Test_util.trace_of (bs, reqs) in
      let blocks = trace.Trace.blocks in
      let iblp = Iblp.create ~i:0 ~b:k ~blocks () in
      Test_util.run_misses iblp trace
      = Test_util.run_misses (Block_lru.create ~k ~blocks) trace)

let test_iblp_item_hit_does_not_reorder_block_layer () =
  (* B = 2; block layer holds 2 blocks; item layer holds 2 items.
     Load blocks 0 then 1, then hammer item 0 through the item layer only;
     loading block 2 must still evict block 0, whose block-layer recency is
     untouched by item-layer hits. *)
  let blocks = Block_map.uniform ~block_size:2 in
  let p = Iblp.create ~i:2 ~b:4 ~blocks () in
  ignore (Policy.access p 0) (* miss: block 0 resident; item layer {0} *);
  ignore (Policy.access p 2) (* miss: block 1 resident; item layer {2,0} *);
  ignore (Policy.access p 0) (* item-layer hit: must NOT touch block layer *);
  ignore (Policy.access p 0);
  ignore (Policy.access p 0);
  (* Now load block 2: LRU block must be block 0 despite the recent hits. *)
  (match Policy.access p 4 with
  | Policy.Miss { evicted; _ } ->
      Alcotest.(check bool) "block 0's other item evicted" true
        (List.mem 1 evicted)
  | Policy.Hit _ -> Alcotest.fail "expected miss");
  (* Item 0 survives in the item layer even though its block was evicted. *)
  Alcotest.(check bool) "hot item survives in item layer" true (Policy.mem p 0);
  Alcotest.(check bool) "cold sibling gone" false (Policy.mem p 1)

let test_iblp_spatial_hits () =
  let blocks = Block_map.uniform ~block_size:4 in
  let p = Iblp.create ~i:2 ~b:8 ~blocks () in
  let trace = Trace.of_list blocks [ 0; 1; 2; 3 ] in
  let m = Simulator.run p trace in
  Alcotest.(check int) "one miss" 1 m.Metrics.misses;
  Alcotest.(check int) "three spatial hits" 3 m.Metrics.spatial_hits

let test_iblp_occupancy_counts_duplicates () =
  let blocks = Block_map.uniform ~block_size:2 in
  let p = Iblp.create ~i:2 ~b:2 ~blocks () in
  ignore (Policy.access p 0);
  (* Item 0 is in both layers: 1 (item layer) + 2 (block layer). *)
  Alcotest.(check int) "duplicate counted" 3 (Policy.occupancy p)

let test_iblp_create_validation () =
  let blocks = Block_map.uniform ~block_size:4 in
  Alcotest.check_raises "nothing fits"
    (Invalid_argument "Iblp.create: cache cannot hold anything (i = 0, b < B)")
    (fun () -> ignore (Iblp.create ~i:0 ~b:3 ~blocks ()))

(* --------------------------------------------------------------- Marking *)

let test_marking_never_evicts_marked () =
  let p = Marking.create ~k:3 ~rng:(rng ()) in
  let feed x = ignore (Policy.access p x) in
  feed 1;
  feed 2;
  feed 3;
  (* All marked; next miss starts a new phase, then evicts one at random —
     but within the phase, re-accessing keeps everything. *)
  feed 1;
  feed 2;
  feed 3;
  Alcotest.(check int) "full" 3 (Policy.occupancy p);
  feed 4;
  (* New phase: 4 is marked, one of {1,2,3} was evicted. *)
  Alcotest.(check bool) "4 present" true (Policy.mem p 4);
  Alcotest.(check int) "occupancy" 3 (Policy.occupancy p)

let test_marking_hits_within_phase () =
  let p = Marking.create ~k:4 ~rng:(rng ()) in
  let trace = Test_util.trace_of (1, [| 0; 1; 2; 3; 0; 1; 2; 3 |]) in
  let m = Simulator.run p trace in
  Alcotest.(check int) "4 cold misses only" 4 m.Metrics.misses

(* ------------------------------------------------------------------- GCM *)

let test_gcm_loads_block_marks_requested () =
  let blocks = Block_map.uniform ~block_size:4 in
  let p = Marking.gcm ~k:8 ~blocks ~rng:(rng ()) () in
  (match Policy.access p 1 with
  | Policy.Miss { loaded; _ } ->
      Alcotest.(check (list int)) "whole block loaded" [ 0; 1; 2; 3 ]
        (List.sort compare loaded)
  | Policy.Hit _ -> Alcotest.fail "expected miss");
  (* Fill with another block; the unmarked siblings of 1 are fair game,
     marked 1 is not: after many conflicting loads, 1 must survive until a
     phase change. *)
  ignore (Policy.access p 5);
  ignore (Policy.access p 9) (* replaces unmarked items, never 1 or 5 *);
  Alcotest.(check bool) "marked 1 survives" true (Policy.mem p 1);
  Alcotest.(check bool) "marked 5 survives" true (Policy.mem p 5)

let test_gcm_load_limit_one_loads_only_requested () =
  let blocks = Block_map.uniform ~block_size:8 in
  let p = Marking.gcm ~load_limit:1 ~k:16 ~blocks ~rng:(rng ()) () in
  match Policy.access p 3 with
  | Policy.Miss { loaded; _ } ->
      Alcotest.(check (list int)) "only the request" [ 3 ] loaded
  | Policy.Hit _ -> Alcotest.fail "expected miss"

let test_gcm_load_limit_caps_loads =
  Test_util.qcheck ~count:150 "GCM never loads more than its limit"
    (QCheck.triple
       (Test_util.small_trace_arbitrary ~max_universe:24 ~max_len:100 ())
       QCheck.(int_range 1 4)
       QCheck.(int_range 0 1000))
    (fun ((bs, reqs), m, seed) ->
      let trace = Test_util.trace_of (bs, reqs) in
      let p =
        Marking.gcm ~load_limit:m ~k:(4 * bs) ~blocks:trace.Trace.blocks
          ~rng:(Rng.create seed) ()
      in
      let ok = ref true in
      Array.iter
        (fun x ->
          match Policy.access p x with
          | Policy.Miss { loaded; _ } ->
              if List.length loaded > m then ok := false
          | Policy.Hit _ -> ())
        reqs;
      !ok)

let test_gcm_spatial_hits_on_scan () =
  let blocks = Block_map.uniform ~block_size:8 in
  let p = Marking.gcm ~k:16 ~blocks ~rng:(rng ()) () in
  let trace = Generators.sequential ~n:16 ~universe:16 ~block_size:8 in
  let m = Simulator.run p trace in
  Alcotest.(check int) "2 misses for 2 blocks" 2 m.Metrics.misses;
  Alcotest.(check int) "14 spatial hits" 14 m.Metrics.spatial_hits

(* --------------------------------------------------------------- Param_a *)

let test_param_a_one_loads_block () =
  let blocks = Block_map.uniform ~block_size:4 in
  let p = Param_a.create ~k:8 ~a:1 ~blocks in
  (match Policy.access p 2 with
  | Policy.Miss { loaded; _ } ->
      Alcotest.(check int) "whole block" 4 (List.length loaded)
  | Policy.Hit _ -> Alcotest.fail "expected miss")

let test_param_a_two_waits () =
  let blocks = Block_map.uniform ~block_size:4 in
  let p = Param_a.create ~k:8 ~a:2 ~blocks in
  (match Policy.access p 2 with
  | Policy.Miss { loaded; _ } ->
      Alcotest.(check (list int)) "only requested" [ 2 ] loaded
  | Policy.Hit _ -> Alcotest.fail "expected miss");
  (match Policy.access p 3 with
  | Policy.Miss { loaded; _ } ->
      (* Second distinct consecutive access: the rest of the block comes in. *)
      Alcotest.(check (list int)) "rest of block" [ 0; 1; 3 ]
        (List.sort compare loaded)
  | Policy.Hit _ -> Alcotest.fail "expected miss")

let test_param_a_run_resets () =
  let blocks = Block_map.uniform ~block_size:4 in
  let p = Param_a.create ~k:12 ~a:2 ~blocks in
  ignore (Policy.access p 2) (* block 0, run = {2} *);
  ignore (Policy.access p 5) (* block 1 resets the run *);
  (match Policy.access p 3 with
  | Policy.Miss { loaded; _ } ->
      Alcotest.(check (list int)) "run was reset" [ 3 ] loaded
  | Policy.Hit _ -> Alcotest.fail "expected miss")

let test_param_a_large_behaves_like_lru =
  Test_util.qcheck ~count:200 "param-a with huge a equals LRU"
    (QCheck.pair (Test_util.small_trace_arbitrary ()) QCheck.(int_range 4 8))
    (fun ((bs, reqs), k) ->
      let trace = Test_util.trace_of (bs, reqs) in
      let p = Param_a.create ~k ~a:1000 ~blocks:trace.Trace.blocks in
      Test_util.run_misses p trace = Test_util.run_misses (Lru.create ~k) trace)

(* A deliberately slow, obviously-correct IBLP model for differential
   testing of the production implementation: plain lists, MRU first. *)
module Reference_iblp = struct
  type t = {
    i : int;
    cap_blocks : int;
    bsize : int;
    mutable items : int list;
    mutable blocks : int list;
  }

  let create ~i ~b ~bsize =
    { i; cap_blocks = b / bsize; bsize; items = []; blocks = [] }

  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: take (n - 1) rest

  (* Returns true on hit. *)
  let access t x =
    let blk = x / t.bsize in
    if List.mem x t.items then begin
      t.items <- x :: List.filter (fun y -> y <> x) t.items;
      true
    end
    else if List.mem blk t.blocks then begin
      t.blocks <- blk :: List.filter (fun b -> b <> blk) t.blocks;
      if t.i > 0 then
        t.items <- take t.i (x :: List.filter (fun y -> y <> x) t.items);
      true
    end
    else begin
      if t.cap_blocks > 0 then
        t.blocks <- take t.cap_blocks (blk :: t.blocks);
      if t.i > 0 then
        t.items <- take t.i (x :: List.filter (fun y -> y <> x) t.items);
      false
    end
end

let qcheck_iblp_matches_reference =
  Test_util.qcheck ~count:400 "IBLP hit/miss sequence matches list reference"
    (QCheck.triple
       (Test_util.small_trace_arbitrary ~max_universe:24 ~max_len:120 ())
       QCheck.(int_range 0 6)
       QCheck.(int_range 0 3))
    (fun ((bs, reqs), i, b_blocks) ->
      let b = b_blocks * bs in
      QCheck.assume (i + b >= 1 && (i > 0 || b >= bs));
      let trace = Test_util.trace_of (bs, reqs) in
      let prod = Iblp.create ~i ~b ~blocks:trace.Trace.blocks () in
      let reference = Reference_iblp.create ~i ~b ~bsize:bs in
      Array.for_all
        (fun x ->
          let expected = Reference_iblp.access reference x in
          let got =
            match Policy.access prod x with
            | Policy.Hit _ -> true
            | Policy.Miss _ -> false
          in
          expected = got)
        reqs)

let test_iblp_reorder_ablation_hurts_worst_case () =
  (* The Section-5.1 design argument: if item-layer hits refreshed the
     block layer, blocks holding one hot item would pin the block layer and
     starve a concurrent scan.  Faithful IBLP serves the scan from the
     block layer; the ablated variant thrashes. *)
  let block_size = 16 in
  let blocks = Block_map.uniform ~block_size in
  let b = 384 in
  let n_hot = b / block_size in
  let hot_blocks = Array.init n_hot (fun j -> 1000 + j) in
  let scan_blocks = Array.init (n_hot - 4) (fun j -> 2000 + j) in
  let requests = ref [] in
  let push x = requests := x :: !requests in
  Array.iter
    (fun blk ->
      push ((blk * block_size) + 1);
      push (blk * block_size))
    hot_blocks;
  for round = 0 to 1000 do
    let scan = scan_blocks.(round mod Array.length scan_blocks) in
    let offset = round / Array.length scan_blocks mod block_size in
    push ((scan * block_size) + offset);
    Array.iter (fun blk -> push (blk * block_size)) hot_blocks
  done;
  let trace = Trace.make blocks (Array.of_list (List.rev !requests)) in
  let run reorder =
    let p = Iblp.create ~reorder_on_item_hit:reorder ~i:64 ~b ~blocks () in
    Test_util.run_misses p trace
  in
  let faithful = run false and ablated = run true in
  Alcotest.(check bool)
    (Printf.sprintf "faithful %d << ablated %d" faithful ablated)
    true
    (5 * faithful < ablated)

(* ------------------------------------------------------------------ FWF *)

let test_fwf_flushes () =
  let p = Fwf.create ~k:3 in
  let feed x = ignore (Policy.access p x) in
  feed 1;
  feed 2;
  feed 3;
  Alcotest.(check int) "full" 3 (Policy.occupancy p);
  (match Policy.access p 4 with
  | Policy.Miss { evicted; _ } ->
      Alcotest.(check (list int)) "flushes everything" [ 1; 2; 3 ]
        (List.sort compare evicted)
  | Policy.Hit _ -> Alcotest.fail "expected miss");
  Alcotest.(check int) "only the new item" 1 (Policy.occupancy p)

let qcheck_fwf_at_most_k_plus_one_phases =
  Test_util.qcheck ~count:150 "FWF misses <= (distinct plus flush churn)"
    (QCheck.pair (Test_util.small_trace_arbitrary ()) QCheck.(int_range 1 8))
    (fun ((bs, reqs), k) ->
      let trace = Test_util.trace_of (bs, reqs) in
      (* Sanity invariant: FWF never beats Belady, never exceeds trace
         length. *)
      let misses = Test_util.run_misses (Fwf.create ~k) trace in
      misses <= Array.length reqs
      && misses >= Gc_offline.Belady.(cost create ~k trace))

(* ------------------------------------------------------------- Replicates *)

let test_replicates_summary () =
  let s = Replicates.summarize [ 2.; 4.; 6. ] in
  Test_util.check_float ~eps:1e-9 "mean" 4. s.Replicates.mean;
  Test_util.check_float ~eps:1e-9 "min" 2. s.Replicates.min;
  Test_util.check_float ~eps:1e-9 "max" 6. s.Replicates.max;
  Test_util.check_float ~eps:1e-9 "stddev" (sqrt (8. /. 3.)) s.Replicates.stddev

let test_replicates_deterministic_policy_has_zero_variance () =
  let trace = Test_util.trace_of (2, Array.init 200 (fun i -> i mod 17)) in
  let s =
    Replicates.misses
      ~make:(fun ~seed:_ -> Lru.create ~k:8)
      ~trace ~seeds:[ 1; 2; 3; 4 ]
  in
  Test_util.check_float ~eps:1e-9 "no variance" 0. s.Replicates.stddev

let test_replicates_randomized_policy_varies () =
  let trace =
    Generators.uniform_random (rng ()) ~n:5000 ~universe:200 ~block_size:4
  in
  let s =
    Replicates.misses
      ~make:(fun ~seed ->
        Random_evict.create ~k:50 ~rng:(Rng.create seed))
      ~trace
      ~seeds:(List.init 8 (fun i -> i))
  in
  Alcotest.(check bool) "some variance" true (s.Replicates.stddev > 0.)

(* --------------------------------------------------------------- Obs_run *)

(* The production event consumers — Obs_run's per-kind counts and the
   Probe's spatial-hit counter — must sum to the simulator's Metrics on
   any trace, for item, block and layered policies alike. *)
let qcheck_observed_events_sum_to_metrics =
  Test_util.qcheck ~count:50
    "event counts sum to metrics"
    (Test_util.small_trace_arbitrary ~max_universe:48 ~max_len:200 ())
    (fun small ->
      let trace = Test_util.trace_of small in
      List.for_all
        (fun name ->
          match
            Obs_run.run_policy_result ~histograms:true ~k:8 ~seed:1 name trace
          with
          | Error f -> QCheck.Test.fail_reportf "%s: %s" name f.Obs_run.message
          | Ok r ->
              let m = r.Obs_run.metrics in
              let count kind = List.assoc kind r.Obs_run.events in
              let spatial =
                match r.Obs_run.registry with
                | Some reg ->
                    Gc_obs.Registry.counter_value
                      (Gc_obs.Registry.counter reg "events_hit_spatial")
                | None -> -1
              in
              count "access" = m.Metrics.accesses
              && count "hit" = m.Metrics.hits
              && count "miss" = m.Metrics.misses
              && spatial = m.Metrics.spatial_hits)
        [ "lru"; "block-lru"; "gcm"; "iblp"; "iblp-adaptive" ])

(* ------------------------------------------------------------------ ARC *)

let test_arc_promotes_on_second_hit () =
  let p = Arc.create ~k:4 in
  let feed x = ignore (Policy.access p x) in
  feed 1;
  feed 1 (* 1 now in T2 *);
  feed 2;
  feed 3;
  feed 4 (* T1 = [4;3;2], T2 = [1] *);
  feed 5 (* cold miss with full cache: evicts from T1 *);
  Alcotest.(check bool) "frequent item survives" true (Policy.mem p 1);
  Alcotest.(check int) "occupancy" 4 (Policy.occupancy p)

let test_arc_ghost_hit_adapts () =
  (* Evict an item, then re-request it: ARC must miss (ghosts hold no
     data) but still cache it afterwards. *)
  let p = Arc.create ~k:2 in
  let feed x = ignore (Policy.access p x) in
  feed 1;
  feed 2;
  feed 3 (* evicts 1 into B1 *);
  Alcotest.(check bool) "1 gone" false (Policy.mem p 1);
  (match Policy.access p 1 with
  | Policy.Miss _ -> ()
  | Policy.Hit _ -> Alcotest.fail "ghost hit must still be a miss");
  Alcotest.(check bool) "1 back" true (Policy.mem p 1)

let qcheck_arc_respects_capacity =
  Test_util.qcheck ~count:200 "ARC occupancy never exceeds k"
    (QCheck.pair (Test_util.small_trace_arbitrary ~max_len:120 ()) QCheck.(int_range 2 8))
    (fun ((bs, reqs), k) ->
      let trace = Test_util.trace_of (bs, reqs) in
      let p = Arc.create ~k in
      let m = Gc_cache.Simulator.run p trace in
      m.Metrics.hits + m.Metrics.misses = m.Metrics.accesses)

(* ------------------------------------------------------------------- 2Q *)

let test_two_q_filters_one_hit_wonders () =
  (* A scan of cold items must not displace the hot working set in Am. *)
  let p = Two_q.create ~k:8 in
  let feed x = ignore (Policy.access p x) in
  (* Fill the cache and overflow A1in so item 100 lands in the ghost. *)
  feed 100;
  for x = 0 to 7 do
    feed x
  done;
  Alcotest.(check bool) "100 demoted to ghost" false (Policy.mem p 100);
  (* Re-reference within the ghost window: promoted to Am. *)
  feed 100;
  Alcotest.(check bool) "100 back (in Am)" true (Policy.mem p 100);
  (* A long scan of one-hit wonders churns through A1in, not Am. *)
  for x = 20 to 49 do
    feed x
  done;
  Alcotest.(check bool) "hot item survives scan" true (Policy.mem p 100)

let test_two_q_validation () =
  match Two_q.create ~k:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k < 2 accepted"

(* ---------------------------------------------------------- Marking.block *)

let test_block_marking_marks_whole_block () =
  let blocks = Block_map.uniform ~block_size:4 in
  let p = Marking.block ~k:8 ~blocks ~rng:(rng ()) in
  (match Policy.access p 1 with
  | Policy.Miss { loaded; _ } ->
      Alcotest.(check (list int)) "whole block" [ 0; 1; 2; 3 ]
        (List.sort compare loaded)
  | Policy.Hit _ -> Alcotest.fail "expected miss");
  (* Unlike GCM, the spatially loaded siblings are marked: a later miss on
     another block cannot displace them within the phase. *)
  ignore (Policy.access p 5) (* loads block 1, fills the cache, all marked *);
  (match Policy.access p 9 with
  | Policy.Miss { loaded; evicted } ->
      (* Everything was marked: a phase reset happened for the requested
         item, then extras could displace the now-unmarked items. *)
      Alcotest.(check bool) "loaded something" true (List.length loaded >= 1);
      Alcotest.(check bool) "evicted something" true (List.length evicted >= 1)
  | Policy.Hit _ -> Alcotest.fail "expected miss")

let test_block_marking_pollutes_vs_gcm =
  Test_util.qcheck ~count:50 "block-marking never beats GCM by much on sparse traces"
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      (* One hot item per block: marked siblings are pure pollution. *)
      let trace =
        Generators.zipf_blocks (Rng.create seed) ~n:5_000 ~blocks:256
          ~block_size:8 ~alpha:0.9 ~within:`First
      in
      let run name =
        Test_util.run_misses
          (Registry.make name ~k:128 ~blocks:trace.Trace.blocks ~seed)
          trace
      in
      (* GCM should win (strictly in almost all seeds; allow rare ties). *)
      run "gcm" <= run "block-marking")

(* ---------------------------------------------------------- Iblp.adaptive *)

let test_iblp_adaptive_validation () =
  match
    Iblp.adaptive ~k:8 ~blocks:(Block_map.uniform ~block_size:16) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k < 2B accepted"

let qcheck_iblp_adaptive_model =
  Test_util.qcheck ~count:150 "adaptive IBLP passes checked simulation"
    (QCheck.pair
       (Test_util.small_trace_arbitrary ~max_universe:20 ~max_len:150 ())
       QCheck.(int_range 2 6))
    (fun ((bs, reqs), mult) ->
      let trace = Test_util.trace_of (bs, reqs) in
      let k = 2 * bs * mult in
      let p = Iblp.adaptive ~k ~blocks:trace.Trace.blocks () in
      let m = Gc_cache.Simulator.run p trace in
      m.Metrics.hits + m.Metrics.misses = m.Metrics.accesses)

let test_iblp_adaptive_tracks_better_baseline () =
  (* On a temporal workload it should approach LRU; on a spatial workload
     it should approach Block-LRU - in both cases beating the wrong-headed
     fixed split by a margin. *)
  let k = 512 in
  let temporal =
    Generators.zipf_items (Rng.create 3) ~n:60_000 ~universe:4096
      ~block_size:16 ~alpha:1.0
  in
  let spatial =
    Generators.spatial_mix (Rng.create 4) ~n:60_000 ~universe:8192
      ~block_size:16 ~p_spatial:0.85
  in
  let run name trace =
    Test_util.run_misses
      (Registry.make name ~k ~blocks:trace.Trace.blocks ~seed:5)
      trace
  in
  let adapt_t = run "iblp-adaptive" temporal in
  let lru_t = run "lru" temporal in
  let fixed_t = run "iblp" temporal in
  Alcotest.(check bool)
    (Printf.sprintf "temporal: adaptive %d within 15%% of lru %d" adapt_t lru_t)
    true
    (float_of_int adapt_t <= 1.15 *. float_of_int lru_t);
  Alcotest.(check bool) "temporal: adaptive beats fixed split" true
    (adapt_t < fixed_t);
  let adapt_s = run "iblp-adaptive" spatial in
  let bl_s = run "block-lru" spatial in
  Alcotest.(check bool)
    (Printf.sprintf "spatial: adaptive %d within 25%% of block-lru %d" adapt_s
       bl_s)
    true
    (float_of_int adapt_s <= 1.25 *. float_of_int bl_s)

(* --------------------------------------------------------- Stride_prefetch *)

let test_stride_prefetch_degree0_is_lru =
  Test_util.qcheck ~count:200 "degree 0 = LRU"
    (QCheck.pair (Test_util.small_trace_arbitrary ()) QCheck.(int_range 1 8))
    (fun ((bs, reqs), k) ->
      let trace = Test_util.trace_of (bs, reqs) in
      Test_util.run_misses
        (Stride_prefetch.create ~k ~degree:0 ~blocks:trace.Trace.blocks)
        trace
      = Test_util.run_misses (Lru.create ~k) trace)

let test_stride_prefetch_loads_within_block () =
  let blocks = Block_map.uniform ~block_size:4 in
  let p = Stride_prefetch.create ~k:8 ~degree:4 ~blocks in
  (* Item 2's block is {0,1,2,3}: prefetch stops at the block edge. *)
  match Policy.access p 2 with
  | Policy.Miss { loaded; _ } ->
      Alcotest.(check (list int)) "request + next-in-block" [ 2; 3 ]
        (List.sort compare loaded)
  | Policy.Hit _ -> Alcotest.fail "expected miss"

let test_stride_prefetch_helps_scans () =
  let trace = Generators.sequential ~n:8192 ~universe:4096 ~block_size:8 in
  let lru = Test_util.run_misses (Lru.create ~k:64) trace in
  let pf =
    Test_util.run_misses
      (Stride_prefetch.create ~k:64 ~degree:7 ~blocks:trace.Trace.blocks)
      trace
  in
  Alcotest.(check bool)
    (Printf.sprintf "prefetch %d ~ lru/8 = %d" pf (lru / 8))
    true
    (8 * pf <= lru + 8)

(* ------------------------------------------------------------------ LRU-K *)

let test_lru_k_depth1_is_lru =
  Test_util.qcheck ~count:200 "LRU-1 = LRU"
    (QCheck.pair (Test_util.small_trace_arbitrary ()) QCheck.(int_range 1 8))
    (fun ((bs, reqs), k) ->
      let trace = Test_util.trace_of (bs, reqs) in
      Test_util.run_misses (Lru_k.create ~k ~depth:1) trace
      = Test_util.run_misses (Lru.create ~k) trace)

let test_lru_k2_scan_resistance () =
  (* Hot pair accessed twice, then a scan: LRU-2 keeps the hot items (the
     scan items have no second reference), LRU loses them. *)
  let reqs =
    Array.concat
      [ [| 0; 1; 0; 1 |]; Array.init 8 (fun i -> 100 + i); [| 0; 1 |] ]
  in
  let trace = Test_util.trace_of (1, reqs) in
  let lru2 = Test_util.run_misses (Lru_k.create ~k:4 ~depth:2) trace in
  let lru = Test_util.run_misses (Lru.create ~k:4) trace in
  Alcotest.(check bool)
    (Printf.sprintf "LRU-2 %d < LRU %d" lru2 lru)
    true (lru2 < lru)

(* ---------------------------------------------------------------- S3-FIFO *)

let test_s3_fifo_capacity =
  Test_util.qcheck ~count:200 "S3-FIFO never exceeds k"
    (QCheck.pair (Test_util.small_trace_arbitrary ~max_len:200 ()) QCheck.(int_range 2 10))
    (fun ((bs, reqs), k) ->
      let trace = Test_util.trace_of (bs, reqs) in
      let m = Gc_cache.Simulator.run (S3_fifo.create ~k) trace in
      m.Metrics.hits + m.Metrics.misses = m.Metrics.accesses)

let test_s3_fifo_scan_resistance () =
  (* A hot working set under a long one-hit-wonder scan: S3-FIFO's small
     probationary queue shields the main queue. *)
  let rng1 = Rng.create 5 in
  let hot = Generators.zipf_items rng1 ~n:30_000 ~universe:512 ~block_size:4 ~alpha:1.2 in
  let scan = Generators.sequential ~n:30_000 ~universe:30_000 ~block_size:4 in
  (* Offset the scan's items clear of the hot set. *)
  let scan = Gc_trace.Transform.remap_items scan ~mapping:(fun x -> x + 10_000) in
  let trace = Generators.interleave hot scan in
  let s3 = Test_util.run_misses (S3_fifo.create ~k:1024) trace in
  let lru = Test_util.run_misses (Lru.create ~k:1024) trace in
  Alcotest.(check bool)
    (Printf.sprintf "S3-FIFO %d < LRU %d under scan" s3 lru)
    true (s3 < lru)

(* -------------------------------------------------------------- Set_assoc *)

let test_set_assoc_single_set_is_lru =
  Test_util.qcheck ~count:200 "1 set x k ways = LRU"
    (QCheck.pair (Test_util.small_trace_arbitrary ()) QCheck.(int_range 1 8))
    (fun ((bs, reqs), k) ->
      let trace = Test_util.trace_of (bs, reqs) in
      Test_util.run_misses (Set_assoc.create_lru ~sets:1 ~ways:k) trace
      = Test_util.run_misses (Lru.create ~k) trace)

let test_set_assoc_conflict_misses () =
  (* Four items in the same set of a 4-set, 1-way cache conflict even
     though the total capacity (4) would hold them all. *)
  let trace = Test_util.trace_of (1, [| 0; 4; 0; 4; 0; 4 |]) in
  let sa = Test_util.run_misses (Set_assoc.create_lru ~sets:4 ~ways:1) trace in
  let full = Test_util.run_misses (Lru.create ~k:4) trace in
  Alcotest.(check int) "set-assoc thrashes" 6 sa;
  Alcotest.(check int) "fully associative holds both" 2 full

let test_set_assoc_capacity () =
  let p = Set_assoc.create_lru ~sets:4 ~ways:2 in
  Alcotest.(check int) "k" 8 (Policy.k p);
  for x = 0 to 99 do
    ignore (Policy.access p x)
  done;
  Alcotest.(check int) "occupancy" 8 (Policy.occupancy p)

(* ----------------------------------------------- simulator sanity sweep *)

let all_policy_names =
  [ "lru"; "fifo"; "lfu"; "clock"; "plru"; "random"; "marking"; "block-lru"; "gcm";
    "iblp"; "param-a"; "param-a:1"; "param-a:3"; "iblp:i=4,b=12"; "arc"; "2q";
    "block-marking"; "iblp-adaptive" ]

let qcheck_policies_respect_model =
  Test_util.qcheck ~count:60 "every policy passes checked simulation"
    (Test_util.small_trace_arbitrary ~max_universe:20 ~max_len:120 ())
    (fun (bs, reqs) ->
      let trace = Test_util.trace_of (bs, reqs) in
      let k = 2 * bs * 2 in
      List.for_all
        (fun name ->
          let p = Registry.make name ~k ~blocks:trace.Trace.blocks ~seed:5 in
          let m = Simulator.run p trace in
          m.Metrics.hits + m.Metrics.misses = m.Metrics.accesses
          && m.Metrics.spatial_hits + m.Metrics.temporal_hits = m.Metrics.hits
          && m.Metrics.items_loaded >= m.Metrics.misses)
        all_policy_names)

let test_simulator_catches_liar () =
  (* A policy that claims a hit on an uncached item must be rejected. *)
  let module Liar = struct
    type t = unit

    let name = "liar"
    let k () = 1
    let mem () _ = true
    let occupancy () = 0
    let access () _ = Policy.Hit { evicted = [] }
  end in
  let p = Policy.Instance ((module Liar), ()) in
  let trace = Test_util.trace_of (1, [| 3 |]) in
  match Simulator.run p trace with
  | exception Simulator.Model_violation _ -> ()
  | _ -> Alcotest.fail "liar accepted"

let test_simulator_catches_foreign_load () =
  let module Foreign = struct
    type t = (int, unit) Hashtbl.t

    let name = "foreign"
    let k _ = 10
    let mem t x = Hashtbl.mem t x
    let occupancy t = Hashtbl.length t

    let access t x =
      Hashtbl.replace t x ();
      Hashtbl.replace t (x + 1000) ();
      Policy.Miss { loaded = [ x; x + 1000 ]; evicted = [] }
  end in
  let p = Policy.Instance ((module Foreign), Hashtbl.create 8) in
  let trace = Test_util.trace_of (2, [| 0 |]) in
  match Simulator.run p trace with
  | exception Simulator.Model_violation _ -> ()
  | _ -> Alcotest.fail "foreign load accepted"

let test_simulator_catches_over_occupancy () =
  let module Greedy = struct
    type t = (int, unit) Hashtbl.t

    let name = "greedy"
    let k _ = 1
    let mem t x = Hashtbl.mem t x
    let occupancy t = Hashtbl.length t

    let access t x =
      Hashtbl.replace t x ();
      Policy.Miss { loaded = [ x ]; evicted = [] }
  end in
  let p = Policy.Instance ((module Greedy), Hashtbl.create 8) in
  let trace = Test_util.trace_of (1, [| 0; 1 |]) in
  match Simulator.run p trace with
  | exception Simulator.Model_violation _ -> ()
  | _ -> Alcotest.fail "over-occupancy accepted"

(* A negative id has no byte in the dense shadow: it must stay in the
   sparse table when the bytes grow past it, rather than be written one
   byte before them, into the block's header. *)
let test_simulator_negative_ids () =
  let blocks = Block_map.uniform ~block_size:1 in
  let d = Simulator.create ~check:false (Registry.make "lru" ~k:8 ~blocks ~seed:1) blocks in
  ignore (Simulator.access d (-1));
  ignore (Simulator.access d 1000);
  Gc.full_major ();
  ignore (Simulator.access d (-1));
  let m = Simulator.metrics d in
  Alcotest.(check (list (pair string int)))
    "counters"
    [
      ("accesses", 3);
      ("hits", 1);
      ("misses", 2);
      ("spatial_hits", 0);
      ("temporal_hits", 1);
      ("cold_misses", 2);
      ("items_loaded", 2);
      ("evictions", 0);
    ]
    (Metrics.fields m)

(* ------------------------------------------------------------ determinism *)

let test_randomized_policies_deterministic_per_seed () =
  let trace =
    Generators.spatial_mix (rng ()) ~n:20_000 ~universe:4096 ~block_size:16
      ~p_spatial:0.5
  in
  List.iter
    (fun name ->
      let run () =
        Test_util.run_misses
          (Registry.make name ~k:256 ~blocks:trace.Trace.blocks ~seed:123)
          trace
      in
      Alcotest.(check int) (name ^ " deterministic per seed") (run ()) (run ()))
    [ "random"; "marking"; "gcm"; "block-marking" ]

let test_metrics_add_and_reset () =
  let a = Metrics.create () and b = Metrics.create () in
  a.Metrics.hits <- 3;
  a.Metrics.misses <- 2;
  a.Metrics.accesses <- 5;
  b.Metrics.hits <- 1;
  b.Metrics.misses <- 4;
  b.Metrics.accesses <- 5;
  Metrics.add a b;
  Alcotest.(check int) "hits" 4 a.Metrics.hits;
  Alcotest.(check int) "accesses" 10 a.Metrics.accesses;
  Test_util.check_float ~eps:1e-9 "hit rate" 0.4 (Metrics.hit_rate a);
  Metrics.reset a;
  Alcotest.(check int) "reset" 0 a.Metrics.accesses;
  Test_util.check_float ~eps:1e-9 "rate on empty" 0. (Metrics.hit_rate a)

let test_registry_docs_complete () =
  List.iter
    (fun spec ->
      Alcotest.(check bool)
        (spec.Registry.name ^ " has a description")
        true
        (String.length spec.Registry.doc > 10))
    Registry.all

(* -------------------------------------------------------------- Registry *)

let test_registry_all_construct () =
  let blocks = Block_map.uniform ~block_size:4 in
  List.iter
    (fun spec ->
      let p = spec.Registry.make ~k:16 ~blocks ~seed:3 in
      Alcotest.(check bool) "k" true (Policy.k p >= 1))
    Registry.all

let test_registry_param_parsing () =
  let blocks = Block_map.uniform ~block_size:4 in
  let p = Registry.make "iblp:i=4,b=12" ~k:16 ~blocks ~seed:0 in
  Alcotest.(check int) "k = i + b" 16 (Policy.k p);
  let p2 = Registry.make "param-a:3" ~k:16 ~blocks ~seed:0 in
  Alcotest.(check string) "name" "param-a" (Policy.name p2)

let test_registry_unknown () =
  let blocks = Block_map.uniform ~block_size:4 in
  match Registry.make "nonsense" ~k:16 ~blocks ~seed:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted unknown policy"

let () =
  Alcotest.run "gc_cache"
    [
      ( "lru_core",
        [
          Alcotest.test_case "order" `Quick test_lru_core_order;
          Alcotest.test_case "insert_if_absent" `Quick test_lru_core_insert_if_absent;
          Alcotest.test_case "mem finds values just added" `Quick test_lru_core_mem;
          Alcotest.test_case "old values are discarded" `Quick test_lru_core_discard;
          Alcotest.test_case "removed values are not found" `Quick test_lru_core_remove;
        ] );
      ("fuzz", [ lru_core_model fuzz_count ]);
      ( "int_table",
        [ Alcotest.test_case "keys spaced 2^40 apart spread" `Quick test_int_table_spread ] );
      ("index_set", [ Alcotest.test_case "ops" `Quick test_index_set ]);
      ( "item_policies",
        [
          qcheck_lru_matches_reference;
          qcheck_fifo_matches_reference;
          Alcotest.test_case "plru eviction sequence" `Quick test_plru_eviction_sequence;
          Alcotest.test_case "plru non-pow2 ways" `Quick test_plru_non_pow2;
          Alcotest.test_case "lfu evicts least frequent" `Quick test_lfu_evicts_least_frequent;
          Alcotest.test_case "lfu tie-breaks lru" `Quick test_lfu_tie_breaks_lru;
          Alcotest.test_case "clock second chance" `Quick test_clock_second_chance;
          Alcotest.test_case "random occupancy" `Quick test_random_evict_occupancy;
        ] );
      ( "block_lru",
        [
          Alcotest.test_case "loads whole block" `Quick test_block_lru_loads_whole_block;
          Alcotest.test_case "requires k >= B" `Quick test_block_lru_requires_space;
        ] );
      ( "iblp",
        [
          test_iblp_degenerates_to_lru;
          test_iblp_degenerates_to_block_lru;
          Alcotest.test_case "item hits do not reorder block layer" `Quick
            test_iblp_item_hit_does_not_reorder_block_layer;
          Alcotest.test_case "spatial hits" `Quick test_iblp_spatial_hits;
          Alcotest.test_case "duplicate occupancy" `Quick test_iblp_occupancy_counts_duplicates;
          Alcotest.test_case "validation" `Quick test_iblp_create_validation;
          Alcotest.test_case "reorder ablation hurts worst case" `Quick
            test_iblp_reorder_ablation_hurts_worst_case;
          qcheck_iblp_matches_reference;
        ] );
      ( "marking",
        [
          Alcotest.test_case "never evicts marked" `Quick test_marking_never_evicts_marked;
          Alcotest.test_case "hits within phase" `Quick test_marking_hits_within_phase;
        ] );
      ( "gcm",
        [
          Alcotest.test_case "loads block, marks requested" `Quick
            test_gcm_loads_block_marks_requested;
          Alcotest.test_case "spatial hits on scan" `Quick test_gcm_spatial_hits_on_scan;
          Alcotest.test_case "load limit 1" `Quick test_gcm_load_limit_one_loads_only_requested;
          test_gcm_load_limit_caps_loads;
        ] );
      ( "param_a",
        [
          Alcotest.test_case "a=1 loads block" `Quick test_param_a_one_loads_block;
          Alcotest.test_case "a=2 waits" `Quick test_param_a_two_waits;
          Alcotest.test_case "run resets" `Quick test_param_a_run_resets;
          test_param_a_large_behaves_like_lru;
        ] );
      ( "fwf",
        [
          Alcotest.test_case "flushes" `Quick test_fwf_flushes;
          qcheck_fwf_at_most_k_plus_one_phases;
        ] );
      ( "replicates",
        [
          Alcotest.test_case "summary" `Quick test_replicates_summary;
          Alcotest.test_case "deterministic zero variance" `Quick
            test_replicates_deterministic_policy_has_zero_variance;
          Alcotest.test_case "randomized varies" `Quick
            test_replicates_randomized_policy_varies;
        ] );
      ("obs_run", [ qcheck_observed_events_sum_to_metrics ]);
      ( "arc",
        [
          Alcotest.test_case "promotes on second hit" `Quick test_arc_promotes_on_second_hit;
          Alcotest.test_case "ghost hit adapts" `Quick test_arc_ghost_hit_adapts;
          qcheck_arc_respects_capacity;
        ] );
      ( "two_q",
        [
          Alcotest.test_case "filters one-hit wonders" `Quick test_two_q_filters_one_hit_wonders;
          Alcotest.test_case "validation" `Quick test_two_q_validation;
        ] );
      ( "block_marking",
        [
          Alcotest.test_case "marks whole block" `Quick test_block_marking_marks_whole_block;
          test_block_marking_pollutes_vs_gcm;
        ] );
      ( "iblp_adaptive",
        [
          Alcotest.test_case "validation" `Quick test_iblp_adaptive_validation;
          qcheck_iblp_adaptive_model;
          Alcotest.test_case "tracks better baseline" `Slow test_iblp_adaptive_tracks_better_baseline;
        ] );
      ( "stride_prefetch",
        [
          test_stride_prefetch_degree0_is_lru;
          Alcotest.test_case "within block" `Quick test_stride_prefetch_loads_within_block;
          Alcotest.test_case "helps scans" `Quick test_stride_prefetch_helps_scans;
        ] );
      ( "lru_k",
        [
          test_lru_k_depth1_is_lru;
          Alcotest.test_case "scan resistance" `Quick test_lru_k2_scan_resistance;
        ] );
      ( "s3_fifo",
        [
          test_s3_fifo_capacity;
          Alcotest.test_case "scan resistance" `Quick test_s3_fifo_scan_resistance;
        ] );
      ( "set_assoc",
        [
          test_set_assoc_single_set_is_lru;
          Alcotest.test_case "conflict misses" `Quick test_set_assoc_conflict_misses;
          Alcotest.test_case "capacity" `Quick test_set_assoc_capacity;
        ] );
      ( "simulator",
        [
          qcheck_policies_respect_model;
          Alcotest.test_case "catches phantom hits" `Quick test_simulator_catches_liar;
          Alcotest.test_case "catches foreign loads" `Quick test_simulator_catches_foreign_load;
          Alcotest.test_case "catches over-occupancy" `Quick test_simulator_catches_over_occupancy;
          Alcotest.test_case "negative ids stay sparse" `Quick test_simulator_negative_ids;
        ] );
      ( "registry",
        [
          Alcotest.test_case "all construct" `Quick test_registry_all_construct;
          Alcotest.test_case "param parsing" `Quick test_registry_param_parsing;
          Alcotest.test_case "unknown rejected" `Quick test_registry_unknown;
          Alcotest.test_case "docs complete" `Quick test_registry_docs_complete;
          Alcotest.test_case "randomized deterministic per seed" `Quick
            test_randomized_policies_deterministic_per_seed;
          Alcotest.test_case "metrics add/reset" `Quick test_metrics_add_and_reset;
        ] );
    ]
