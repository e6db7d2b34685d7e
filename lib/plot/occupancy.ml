(* Rows are labelled 'a'..'z'. *)
let max_items = 26

let render ~trace ~schedule =
  let n = Gc_trace.Trace.length trace in
  if Array.length schedule <> n then
    invalid_arg "Occupancy.render: schedule length differs from trace";
  (* Assign row labels by order of first residency. *)
  let order = Hashtbl.create 32 in
  let label item =
    match Hashtbl.find_opt order item with
    | Some c -> c
    | None ->
        let idx = Hashtbl.length order in
        if idx >= max_items then
          invalid_arg "Occupancy.render: too many distinct items";
        let c = Char.chr (Char.code 'a' + idx) in
        Hashtbl.add order item c;
        c
  in
  (* Replay the schedule, recording residency per (item, time). *)
  let resident = Hashtbl.create 32 in
  let cells = Array.make_matrix max_items n ' ' in
  let misses = Array.make n false in
  for pos = 0 to n - 1 do
    let x = Gc_trace.Trace.get trace pos in
    let { Gc_offline.Schedule.load; evict } = schedule.(pos) in
    List.iter (fun v -> Hashtbl.remove resident v) evict;
    if not (Hashtbl.mem resident x) then misses.(pos) <- true;
    List.iter
      (fun y ->
        ignore (label y);
        Hashtbl.replace resident y ())
      load;
    if not (Hashtbl.mem resident x) then
      invalid_arg "Occupancy.render: schedule leaves a request unserved";
    Hashtbl.iter
      (fun item () ->
        let row = Char.code (label item) - Char.code 'a' in
        cells.(row).(pos) <- (if item = x then '#' else '='))
      resident
  done;
  let rows_used = Hashtbl.length order in
  let buf = Buffer.create ((n + 8) * (rows_used + 3)) in
  Buffer.add_string buf "      ";
  for pos = 0 to n - 1 do
    Buffer.add_char buf (if misses.(pos) then '*' else ' ')
  done;
  Buffer.add_string buf "   (* = miss)\n";
  (* Rows in label order. *)
  let by_label = Array.make rows_used 0 in
  Hashtbl.iter
    (fun item c -> by_label.(Char.code c - Char.code 'a') <- item)
    order;
  Array.iteri
    (fun row item ->
      Buffer.add_string buf (Printf.sprintf "%4d %c" item (Char.chr (Char.code 'a' + row)));
      for pos = 0 to n - 1 do
        Buffer.add_char buf cells.(row).(pos)
      done;
      Buffer.add_char buf '\n')
    by_label;
  Buffer.add_string buf "      ";
  Buffer.add_string buf (String.make n '-');
  Buffer.add_string buf "> time (accesses)\n";
  Buffer.contents buf
