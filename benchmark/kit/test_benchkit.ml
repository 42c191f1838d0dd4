(* Unit tests of the benchmark's helpers. *)

open Benchkit

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 2.0 (Stat.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check close "even" 2.5 (Stat.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stat.median: no samples") (fun () ->
      ignore (Stat.median [||]))

(* Reference values from Python: statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let q = Alcotest.(triple close close close) in
  Alcotest.check q "1..10" (2.75, 5.5, 8.25) (Stat.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check q "two samples" (0.75, 1.5, 2.25) (Stat.quartiles [| 2.0; 1.0 |]);
  Alcotest.check q "five samples" (1.5, 3.0, 4.5) (Stat.quartiles [| 5.0; 4.0; 3.0; 2.0; 1.0 |]);
  Alcotest.check q "one sample" (7.0, 7.0, 7.0) (Stat.quartiles [| 7.0 |]);
  Alcotest.check close "iqr" 5.5 (Stat.iqr (Array.init 10 (fun i -> float_of_int (i + 1))))

let test_tail_rule () =
  let tail = Alcotest.(option (float 0.0)) in
  Alcotest.check tail "19 samples support nothing" None (Stat.supported_tail 19);
  Alcotest.check tail "20 samples support the median" (Some 50.0) (Stat.supported_tail 20);
  Alcotest.check tail "100 samples support p90" (Some 90.0) (Stat.supported_tail 100);
  Alcotest.check tail "1000 samples support p99" (Some 99.0) (Stat.supported_tail 1000);
  Alcotest.check tail "10000 samples support p99.9" (Some 99.9) (Stat.supported_tail 10_000);
  Alcotest.(check bool) "9999 samples do not support p99.9" false (Stat.supports 9_999 99.9);
  let xs = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "nearest-rank p99" 990.0 (Stat.percentile xs 99.0);
  Alcotest.check close "nearest-rank p50" 500.0 (Stat.percentile xs 50.0)

let test_bound () =
  Alcotest.check close "floor wins on small values" 0.05 (Stat.allowed ~bound:0.1 ~floor:0.05 0.2);
  Alcotest.check close "relative wins on large values" 1.0 (Stat.allowed ~bound:0.1 ~floor:0.05 10.0);
  let verdict better base change =
    Stat.string_of_verdict (Stat.verdict better ~bound:0.1 ~floor:0.0 ~base ~change)
  in
  let base = [| 9.9; 10.0; 10.1 |] in
  let v = Alcotest.(check string) in
  v "small slowdown is within bound" "within bound" (verdict Lower base [| 10.4; 10.5; 10.6 |]);
  v "large slowdown is worse" "worse" (verdict Lower base [| 11.9; 12.0; 12.1 |]);
  v "large speedup is better" "better" (verdict Lower base [| 7.9; 8.0; 8.1 |]);
  v "direction flips for higher-is-better" "worse" (verdict Higher base [| 7.9; 8.0; 8.1 |]);
  v "a spread wider than the bound is unresolved" "unresolved"
    (verdict Lower base [| 6.0; 10.0; 14.0 |]);
  v "unless every change sample beats every base sample" "better"
    (verdict Lower [| 10.0; 12.0; 14.0 |] [| 6.0; 7.0; 9.9 |]);
  v "the floor absorbs tiny absolute changes" "within bound"
    (Stat.string_of_verdict
       (Stat.verdict Lower ~bound:0.1 ~floor:0.05 ~base:[| 0.01 |] ~change:[| 0.03 |]))

let span name parent round start stop = { Span.name; parent; round; start; stop; words = 0.0 }

let test_self_time () =
  let parent = span "tail" "round" 0 0 100 in
  Alcotest.(check int) "disjoint children" 70
    (Span.self_time parent [ span "a" "tail" 0 10 30; span "b" "tail" 0 40 50 ]);
  Alcotest.(check int) "no children" 100 (Span.self_time parent []);
  Alcotest.(check int) "replayed children longer than the parent" 0
    (Span.self_time parent [ span "fill" "tail" 0 200 350 ])

let test_phases () =
  let seq =
    Span.
      [
        (Run_start, 0); (Inputs, 10); (Decide_in, 20); (Decide_out, 50); (Absorb_in, 60);
        (Absorb_out, 80); (Observe_in, 85); (Observe_out, 95); (Inputs, 100); (Decide_in, 105);
        (Decide_out, 130); (Absorb_in, 140); (Absorb_out, 150); (Run_end, 160);
      ]
  in
  let stamps =
    Array.of_list (List.map (fun (mark, at) -> { Span.mark; at; words = float_of_int (at * 2) }) seq)
  in
  let got =
    List.map (fun (s : Span.t) -> (s.name, s.parent, s.round, s.start, s.stop)) (Span.of_stamps stamps)
  in
  let want =
    [
      ("prologue", "", -1, 0, 10);
      ("inputs", "round", 0, 10, 20);
      ("decide", "round", 0, 20, 50);
      ("reception", "round", 0, 50, 60);
      ("absorb", "round", 0, 60, 80);
      ("observe", "tail", 0, 85, 95);
      ("tail", "round", 0, 80, 100);
      ("round", "", 0, 10, 100);
      ("inputs", "round", 1, 100, 105);
      ("decide", "round", 1, 105, 130);
      ("reception", "round", 1, 130, 140);
      ("absorb", "round", 1, 140, 150);
      ("tail", "round", 1, 150, 160);
      ("round", "", 1, 100, 160);
    ]
  in
  Alcotest.(check (list (pair (pair string string) (triple int int int))))
    "spans"
    (List.map (fun (a, b, c, d, e) -> ((a, b), (c, d, e))) want)
    (List.map (fun (a, b, c, d, e) -> ((a, b), (c, d, e))) got);
  let spans = Span.of_stamps stamps in
  let roots = List.filter (fun (s : Span.t) -> s.parent = "") spans in
  Alcotest.(check int) "root spans cover the run" 160
    (List.fold_left (fun a s -> a + Span.duration s) 0 roots);
  Alcotest.check close "words follow the stamps" 110.0
    (List.fold_left (fun a (s : Span.t) -> if s.name = "decide" then a +. s.words else a) 0.0 spans);
  Alcotest.check_raises "a round without its decide entry is rejected"
    (Invalid_argument "Span.of_stamps: missing boundary") (fun () ->
      ignore
        (Span.of_stamps
           (Array.of_list
              (List.map
                 (fun (mark, at) -> { Span.mark; at; words = 0.0 })
                 Span.[ (Run_start, 0); (Inputs, 1); (Decide_out, 2) ]))))

let test_json () =
  let v =
    Jsonv.Obj
      [
        ("a", Num 1.0); ("b", Num 0.1); ("c", Str "x\"y\n"); ("d", Arr [ Bool true; Null ]);
        ("e", Obj []); ("f", Num (-2.5e-7));
      ]
  in
  Alcotest.(check bool) "round trip" true (Jsonv.parse (Jsonv.to_string v) = Ok v);
  Alcotest.(check bool) "trailing input rejected" true (Result.is_error (Jsonv.parse "{} x"));
  Alcotest.(check string) "integers print without a fraction" "12" (Jsonv.number 12.0)

let () =
  Alcotest.run "benchkit"
    [
      ( "stat",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "highest supported percentile" `Quick test_tail_rule;
          Alcotest.test_case "bound check" `Quick test_bound;
        ] );
      ( "span",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "phase reconstruction" `Quick test_phases;
        ] );
      ("json", [ Alcotest.test_case "round trip" `Quick test_json ]);
    ]
