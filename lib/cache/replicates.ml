type summary = {
  runs : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let summarize values =
  let n = List.length values in
  if n = 0 then invalid_arg "Replicates.summarize: no values";
  let nf = float_of_int n in
  let mean = List.fold_left ( +. ) 0. values /. nf in
  let var =
    List.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.)) 0. values /. nf
  in
  {
    runs = n;
    mean;
    stddev = sqrt var;
    min = List.fold_left Float.min infinity values;
    max = List.fold_left Float.max neg_infinity values;
  }

let misses ~make ~trace ~seeds =
  if seeds = [] then invalid_arg "Replicates.misses: no seeds";
  summarize
    (List.map
       (fun seed ->
         let m = Simulator.run ~check:false (make ~seed) trace in
         float_of_int m.Metrics.misses)
       seeds)

let pp fmt s =
  Format.fprintf fmt "mean %.1f (sd %.1f, min %.0f, max %.0f, n=%d)" s.mean
    s.stddev s.min s.max s.runs
