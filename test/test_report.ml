(* Tests for the report library: tables, CSV, charts. *)

open Core.Report

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let fixture =
  Table.make ~title:"T"
    ~headers:[ "name"; "value" ]
    ~aligns:Table.[ Left; Right ]
    [ [ "alpha"; "1" ]; [ "beta-long"; "22" ] ]

let test_table_alignment () =
  let out = Table.render fixture in
  let lines = String.split_on_char '\n' out in
  (* title, header, separator, two rows (and trailing empty). *)
  Alcotest.(check int) "line count" 6 (List.length lines);
  let header = List.nth lines 1 in
  let row1 = List.nth lines 3 in
  Alcotest.(check bool) "columns padded to same width" true
    (String.length header = String.length row1);
  (* Right-aligned numeric column: the value ends the row. *)
  let row2 = List.nth lines 4 in
  Alcotest.(check bool) "right aligned" true
    (String.length row2 > 0 && row2.[String.length row2 - 1] = '2')

let test_table_empty_rows () =
  let t = Table.make ~headers:[ "a" ] [] in
  let out = Table.render t in
  Alcotest.(check bool) "renders header" true
    (String.length out > 0)

let test_csv_escaping () =
  let t =
    Table.make ~headers:[ "a"; "b" ]
      [ [ "plain"; "with,comma" ]; [ "with\"quote"; "x" ] ]
  in
  let csv = Table.to_csv t in
  Alcotest.(check bool) "comma cell quoted" true
    (contains csv "\"with,comma\"")

let test_chart_bars_scale () =
  let out = Chart.bars ~title:"t" [ ("big", 100.); ("half", 50.) ] in
  let count_hashes line =
    String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 line
  in
  match String.split_on_char '\n' out with
  | _title :: big :: half :: _ ->
    Alcotest.(check bool) "bar lengths proportional" true
      (count_hashes big >= 2 * count_hashes half - 2
      && count_hashes big > count_hashes half)
  | _ -> Alcotest.fail "unexpected chart shape"

let test_chart_bars_empty () =
  Alcotest.(check bool) "no crash on empty" true
    (String.length (Chart.bars []) >= 0)

let test_stacked_bars_total () =
  let out =
    Chart.stacked_bars [ ("x", [ ('C', 1.); ('M', 3.) ]) ]
  in
  Alcotest.(check bool) "contains both segment glyphs" true
    (String.contains out 'C' && String.contains out 'M')

let test_curves_table () =
  let out =
    Chart.curves ~title:"q" ~ylabel:"y"
      ~series:[ ("a", [ 0.1; 0.2 ]); ("b", [ 1.0 ]) ]
      ()
  in
  (* Series of different lengths pad with blanks and don't crash. *)
  Alcotest.(check bool) "mentions both series" true
    (contains out "a" && contains out "b" && contains out "0.200")

(* --- json ------------------------------------------------------------- *)

let test_json_escaping () =
  let j =
    Json.Obj [ ("k\"ey", Json.String "line\nbreak\ttab \\ quote\"") ]
  in
  Alcotest.(check string) "escaped"
    {|{"k\"ey":"line\nbreak\ttab \\ quote\""}|} (Json.to_string j)

let test_json_values () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "bool" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int" "42" (Json.to_string (Json.Int 42));
  Alcotest.(check string) "float integral" "2.0"
    (Json.to_string (Json.Float 2.));
  Alcotest.(check string) "nan becomes null" "null"
    (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "list" "[1,2]"
    (Json.to_string (Json.List [ Json.Int 1; Json.Int 2 ]))

let test_json_projection_shape () =
  let w = Core.Workloads.Registry.find_exn "pedagogical" in
  let a =
    Core.Pipeline.analyze ~machine:Core.Hw.Machines.bgq ~workload:w ~scale:1.0
      ()
  in
  let s =
    Json.to_string (Render.json_of_projection a.Core.Pipeline.a_projection)
  in
  Alcotest.(check bool) "has machine field" true
    (contains s {|"machine":"BG/Q"|});
  Alcotest.(check bool) "has blocks" true (contains s {|"blocks":[|});
  Alcotest.(check bool) "has bounds" true (contains s {|"bound":|})

let test_roofline_rows_bounded () =
  let w = Core.Workloads.Registry.find_exn "sord" in
  let a =
    Core.Pipeline.analyze ~machine:Core.Hw.Machines.bgq ~workload:w ~scale:0.1
      ()
  in
  let rows =
    Render.roofline_rows Core.Hw.Machines.bgq
      a.Core.Pipeline.a_projection.Core.Analysis.Perf.blocks ~k:10
  in
  Alcotest.(check bool) "has rows" true (rows <> []);
  List.iter
    (fun row ->
      match List.nth_opt row 4 with
      | Some pct ->
        let v = float_of_string (String.sub pct 0 (String.length pct - 1)) in
        Alcotest.(check bool)
          (Fmt.str "roof fraction %s <= 100%%" pct)
          true
          (v <= 100. +. 1e-6)
      | None -> Alcotest.fail "missing column")
    rows

(* A [Raw] node is written out byte for byte, and the emitted text
   parses back to the tree the raw text itself parses to. *)
let test_json_raw_verbatim () =
  let inner =
    Json.Obj
      [
        ("total_ms", Json.Float 24.15);
        ("spots", Json.List [ Json.Int 1; Json.String "a\"b" ]);
        ("none", Json.Null);
      ]
  in
  let raw = Json.to_string inner in
  let doc = Json.Obj [ ("v", Json.Int 1); ("result", Json.Raw raw) ] in
  let text = Json.to_string doc in
  Alcotest.(check string)
    "emitted verbatim" ({|{"v":1,"result":|} ^ raw ^ "}") text;
  match Json.of_string text with
  | Ok parsed ->
    Alcotest.(check bool)
      "parses as the raw text parsed in place" true
      (parsed = Json.Obj [ ("v", Json.Int 1); ("result", inner) ])
  | Error e -> Alcotest.failf "reparse failed: %s" e

let suite =
  [
    ( "report.json",
      [
        Alcotest.test_case "string escaping" `Quick test_json_escaping;
        Alcotest.test_case "scalar values" `Quick test_json_values;
        Alcotest.test_case "raw node verbatim" `Quick test_json_raw_verbatim;
        Alcotest.test_case "projection shape" `Quick test_json_projection_shape;
        Alcotest.test_case "roofline rows bounded" `Quick
          test_roofline_rows_bounded;
      ] );
    ( "report",
      [
        Alcotest.test_case "table alignment" `Quick test_table_alignment;
        Alcotest.test_case "empty table" `Quick test_table_empty_rows;
        Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
        Alcotest.test_case "bars scale" `Quick test_chart_bars_scale;
        Alcotest.test_case "bars empty" `Quick test_chart_bars_empty;
        Alcotest.test_case "stacked bars" `Quick test_stacked_bars_total;
        Alcotest.test_case "curves" `Quick test_curves_table;
      ] );
  ]
