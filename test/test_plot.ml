open Gc_plot

let line s = String.split_on_char '\n' s

let test_render_basic () =
  let chart =
    Ascii_plot.render ~width:20 ~height:5
      [
        {
          Ascii_plot.marker = '*';
          label = "identity";
          points = List.init 10 (fun i -> (float_of_int i, float_of_int i));
        };
      ]
  in
  Alcotest.(check bool) "contains marker" true (String.contains chart '*');
  Alcotest.(check bool) "contains legend" true
    (List.exists (fun l -> l = "  * = identity") (line chart));
  (* Monotone series: the top row holds the largest x marker, bottom the
     smallest. *)
  let rows = List.filter (fun l -> String.length l > 2 && l.[2] = '|') (line chart) in
  Alcotest.(check int) "height" 5 (List.length rows)

let test_render_log_axes () =
  let chart =
    Ascii_plot.render ~width:30 ~height:6 ~x_scale:Ascii_plot.Log10
      ~y_scale:Ascii_plot.Log10
      [
        {
          Ascii_plot.marker = 'o';
          label = "powers";
          points = [ (1., 1.); (10., 10.); (100., 100.); (1000., 1000.) ];
        };
      ]
  in
  (* On log-log axes a power law is a straight diagonal: each marker sits
     in a distinct row AND column. *)
  let rows =
    List.filter
      (fun l ->
        String.length l > 3 && String.sub l 0 3 = "  |" && String.contains l 'o')
      (line chart)
  in
  Alcotest.(check int) "4 marker rows" 4 (List.length rows);
  Alcotest.(check bool) "log annotation" true
    (List.exists
       (fun l -> String.length l >= 5 && String.sub l 0 2 = "x:" &&
                 String.length l > 6 && String.sub l (String.length l - 5) 5 = "(log)")
       (line chart))

let test_render_skips_infinite () =
  let chart =
    Ascii_plot.render ~width:10 ~height:4
      [
        {
          Ascii_plot.marker = 'x';
          label = "with infinities";
          points = [ (1., 2.); (2., infinity); (3., 4.) ];
        };
      ]
  in
  Alcotest.(check bool) "renders" true (String.contains chart 'x')

let test_render_rejects_empty () =
  match Ascii_plot.render [ { Ascii_plot.marker = 'x'; label = ""; points = [] } ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty accepted"

let test_render_rejects_nonpositive_log () =
  match
    Ascii_plot.render ~y_scale:Ascii_plot.Log10
      [ { Ascii_plot.marker = 'x'; label = ""; points = [ (1., 0.) ] } ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "log of 0 accepted"

let test_multiple_series () =
  let mk marker offset =
    {
      Ascii_plot.marker;
      label = Printf.sprintf "series %c" marker;
      points = List.init 5 (fun i -> (float_of_int i, float_of_int (i + offset)));
    }
  in
  let chart = Ascii_plot.render ~width:24 ~height:8 [ mk 'a' 0; mk 'b' 10 ] in
  Alcotest.(check bool) "both markers" true
    (String.contains chart 'a' && String.contains chart 'b')

(* -------------------------------------------------------------- occupancy *)

let test_occupancy_render () =
  let blocks = Gc_trace.Block_map.uniform ~block_size:2 in
  let trace = Gc_trace.Trace.of_list blocks [ 0; 1; 0 ] in
  let policy = Gc_offline.Belady.clairvoyant ~k:2 trace in
  let sched, _ = Gc_offline.Schedule.record policy trace in
  let chart = Occupancy.render ~trace ~schedule:sched in
  (* One miss (whole block loaded), then hits. *)
  Alcotest.(check bool) "miss marker" true (String.contains chart '*');
  Alcotest.(check bool) "request marker" true (String.contains chart '#');
  Alcotest.(check bool) "residency bar" true (String.contains chart '=')

let test_occupancy_rejects_bad_schedule () =
  let blocks = Gc_trace.Block_map.uniform ~block_size:2 in
  let trace = Gc_trace.Trace.of_list blocks [ 0; 1 ] in
  let bad = [| { Gc_offline.Schedule.load = [ 0 ]; evict = [] };
               { Gc_offline.Schedule.load = []; evict = [] } |] in
  match Occupancy.render ~trace ~schedule:bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unserved request accepted"

let test_occupancy_matches_misses () =
  let trace =
    Gc_trace.Generators.sequential ~n:24 ~universe:12 ~block_size:3
  in
  let policy = Gc_offline.Belady.clairvoyant ~k:6 trace in
  let sched, metrics = Gc_offline.Schedule.record policy trace in
  let chart = Occupancy.render ~trace ~schedule:sched in
  let stars =
    String.fold_left (fun acc c -> if c = '*' then acc + 1 else acc) 0 chart
  in
  (* One '*' per miss (the legend text contains one more). *)
  Alcotest.(check int) "miss markers" (metrics.Gc_cache.Metrics.misses + 1) stars

let () =
  Alcotest.run "gc_plot"
    [
      ( "occupancy",
        [
          Alcotest.test_case "render" `Quick test_occupancy_render;
          Alcotest.test_case "rejects bad schedule" `Quick test_occupancy_rejects_bad_schedule;
          Alcotest.test_case "matches misses" `Quick test_occupancy_matches_misses;
        ] );
      ( "ascii_plot",
        [
          Alcotest.test_case "basic" `Quick test_render_basic;
          Alcotest.test_case "log axes" `Quick test_render_log_axes;
          Alcotest.test_case "skips infinities" `Quick test_render_skips_infinite;
          Alcotest.test_case "rejects empty" `Quick test_render_rejects_empty;
          Alcotest.test_case "rejects log <= 0" `Quick test_render_rejects_nonpositive_log;
          Alcotest.test_case "multiple series" `Quick test_multiple_series;
        ] );
    ]
