type stmt =
  | Access of { point : int; item : int }
  | Loop of { count : int; body : stmt list }
  | Branch of { then_ : stmt list; else_ : stmt list }

type t = {
  body : stmt list;
  blocks : Gc_trace.Block_map.t;
  points : int;
}

type spec =
  | S_access of int
  | S_loop of int * spec list
  | S_branch of spec list * spec list

let access i = S_access i
let loop n body = S_loop (n, body)
let branch then_ else_ = S_branch (then_, else_)

let max_unrolled = 10_000_000

let make blocks specs =
  let next = ref 0 in
  let rec number = function
    | S_access item ->
        if item < 0 then
          invalid_arg "Gc_analysis.Program.make: negative item";
        let point = !next in
        incr next;
        Access { point; item }
    | S_loop (count, body) ->
        if count < 1 then
          invalid_arg "Gc_analysis.Program.make: loop count must be >= 1";
        Loop { count; body = List.map number body }
    | S_branch (then_, else_) ->
        (* Bind in order: record fields evaluate right to left. *)
        let then_ = List.map number then_ in
        let else_ = List.map number else_ in
        Branch { then_; else_ }
  in
  let body = List.map number specs in
  (* Saturating unrolled length, checked against the cap. *)
  let sat a b = if a > max_unrolled - b then max_unrolled + 1 else a + b in
  let rec len_of acc = function
    | Access _ -> sat acc 1
    | Loop { count; body } ->
        let one = List.fold_left len_of 0 body in
        if one > 0 && count > max_unrolled / one then max_unrolled + 1
        else sat acc (count * one)
    | Branch { then_; else_ } ->
        sat acc
          (max (List.fold_left len_of 0 then_) (List.fold_left len_of 0 else_))
  in
  if List.fold_left len_of 0 body > max_unrolled then
    invalid_arg "Gc_analysis.Program.make: unrolled length exceeds cap";
  { body; blocks; points = !next }

let point_items t =
  let items = Array.make t.points (-1) in
  let rec go = function
    | Access { point; item } -> items.(point) <- item
    | Loop { body; _ } -> List.iter go body
    | Branch { then_; else_ } ->
        List.iter go then_;
        List.iter go else_
  in
  List.iter go t.body;
  items

let unrolled_length t =
  let rec len_of acc = function
    | Access _ -> acc + 1
    | Loop { count; body } -> acc + (count * List.fold_left len_of 0 body)
    | Branch { then_; else_ } ->
        acc
        + max (List.fold_left len_of 0 then_) (List.fold_left len_of 0 else_)
  in
  List.fold_left len_of 0 t.body

(* Enumerate branch resolutions by DFS, then-arm first, keeping at most
   [max_paths] partial prefixes alive.  Each prefix is a reversed
   [(point, item)] list; deterministic truncation keeps the audit
   reproducible. *)
let max_paths = 64

let executions_with_flag t =
  let truncated = ref false in
  let cap prefixes =
    let rec take n = function
      | [] -> []
      | _ when n = 0 ->
          truncated := true;
          []
      | x :: rest -> x :: take (n - 1) rest
    in
    take max_paths prefixes
  in
  let rec step prefixes = function
    | Access { point; item } ->
        List.map (fun pre -> (point, item) :: pre) prefixes
    | Loop { count; body } ->
        let cur = ref prefixes in
        for _ = 1 to count do
          cur := run !cur body
        done;
        !cur
    | Branch { then_; else_ } -> cap (run prefixes then_ @ run prefixes else_)
  and run prefixes stmts = List.fold_left step prefixes stmts in
  let paths = run [ [] ] t.body in
  (List.map (fun pre -> Array.of_list (List.rev pre)) paths, !truncated)

let executions t = fst (executions_with_flag t)
let truncated t = snd (executions_with_flag t)

let pp fmt t =
  let open Format in
  let rec stmt f = function
    | Access { point; item } -> fprintf f "@@%d access %d" point item
    | Loop { count; body } ->
        fprintf f "@[<v 2>loop %d {@,%a@]@,}" count stmts body
    | Branch { then_; else_ } ->
        fprintf f "@[<v 2>branch {@,%a@]@,@[<v 2>} else {@,%a@]@,}" stmts then_
          stmts else_
  and stmts f body =
    pp_print_list ~pp_sep:pp_print_cut stmt f body
  in
  fprintf fmt "@[<v>%a@]" stmts t.body
