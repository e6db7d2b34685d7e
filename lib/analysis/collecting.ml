(* Reachable-state cap: the collecting semantics is exponential in
   branch structure, so it fails rather than degrade silently. *)
let max_states = 65536

let run_exact (cfg : Cache_model.config) (p : Program.t) =
  Cache_model.validate cfg;
  let items = Program.point_items p in
  let all_hit = Array.make p.Program.points true in
  let all_miss = Array.make p.Program.points true in
  (* Structural dedup preserving first-occurrence order, so traversal
     stays deterministic. *)
  let dedup states =
    let tbl = Hashtbl.create 64 in
    List.filter
      (fun st ->
        if Hashtbl.mem tbl st then false
        else begin
          Hashtbl.add tbl st ();
          true
        end)
      states
  in
  let check_cap states =
    if List.length states > max_states then
      failwith
        (Printf.sprintf
           "Gc_analysis.Collecting: reachable-state set exceeds %d" max_states);
    states
  in
  let rec exec states stmts = List.fold_left step states stmts
  and step states = function
    | Program.Access { point; item } ->
        check_cap
          (dedup
             (List.map
                (fun st ->
                  let hit, st' = Cache_model.access cfg st item in
                  if hit then all_miss.(point) <- false
                  else all_hit.(point) <- false;
                  st')
                states))
    | Program.Loop { count; body } ->
        let cur = ref states in
        for _ = 1 to count do
          cur := exec !cur body
        done;
        !cur
    | Program.Branch { then_; else_ } ->
        check_cap (dedup (exec states then_ @ exec states else_))
  in
  let (_ : Cache_model.state list) =
    exec [ Cache_model.init cfg ] p.Program.body
  in
  Array.init p.Program.points (fun i ->
      let verdict =
        if all_hit.(i) then Report.Always_hit
        else if all_miss.(i) then Report.Always_miss
        else Report.Unknown
      in
      { Report.point = i; item = items.(i); verdict })
