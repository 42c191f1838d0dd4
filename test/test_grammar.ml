(* The one spec grammar: the five parsers built on [Grammar] hold every
   reading of their frozen predecessors (test/oracle), round-trip their
   printers, and never raise. *)

module Reception = Radiosim.Reception
module Plan = Faults.Plan
module Workload = Macapps.Workload
module Serve = Macapps.Serve
module S = Baseline.Strategy
module Spec = Oracle.Spec
open QCheck

(* Fault specs are read over a fixed 12-node, 200-round horizon. *)
let n = 12

let rounds = 200

let faults = Plan.of_spec ~seed:7 ~n ~rounds

let frozen_faults = Spec.faults ~seed:7 ~n ~rounds

let same_plan a b =
  Plan.n a = Plan.n b
  && List.for_all
       (fun v ->
         Plan.crash_round a v = Plan.crash_round b v
         && Plan.restart_round a v = Plan.restart_round b v
         && List.for_all
              (fun round ->
                Plan.jammed a ~node:v ~round = Plan.jammed b ~node:v ~round)
              (List.init (rounds + 1) Fun.id))
       (List.init (Plan.n a) Fun.id)

(* --- spec generators: canonical specs of random values, then mutated --- *)

let number =
  Gen.(
    oneof
      [
        map (Printf.sprintf "%g") (float_range 0.0 2.0);
        map (Printf.sprintf "%g") (float_range 0.0 100.0);
        map (Printf.sprintf "%.17g") (float_range 0.0 1.0);
        map (Printf.sprintf "%h") (float_range 0.0 8.0);
        map string_of_int (int_range (-3) 100);
        oneofl [ "nan"; "inf"; "-inf"; "-0"; "1e3"; "1E-2"; "0x1P-3"; "1_0"; "+2"; ""; "x" ];
      ])

let integer =
  Gen.(
    oneof
      [
        map string_of_int (int_range (-2) 70);
        oneofl [ "0x10"; "0B11"; "1_0"; "+3"; "-0"; "1.5"; ""; "x"; "99999999999999999999" ];
      ])

let reception_spec =
  Gen.(
    oneof
      [
        oneofl [ "dual"; "dual-graph"; "sinr"; "sinr:" ];
        map
          (fun kvs -> "sinr:" ^ String.concat "," kvs)
          (list_size (int_range 1 4)
             (oneof
                [
                  map2 (Printf.sprintf "%s=%s")
                    (oneofl [ "alpha"; "beta"; "noise"; "power"; "jam"; "volume" ])
                    number;
                  map (Printf.sprintf "near=%s") integer;
                ]));
      ])

let node = Gen.int_range (-1) (n + 1)

let faults_spec =
  let clause =
    Gen.(
      oneof
        [
          map2 (Printf.sprintf "crash:%d@%d") node (int_range (-1) 100);
          map2 (Printf.sprintf "restart:%d@%d") node (int_range 0 150);
          map3 (Printf.sprintf "jam:%d@%d-%d") node (int_range 0 100) (int_range 0 150);
          map2
            (fun rate d ->
              match d with
              | None -> "churn:" ^ rate
              | Some d -> Printf.sprintf "churn:%s,%s" rate d)
            (oneof [ map (Printf.sprintf "%g") (float_range 0.0 0.05); number ])
            (opt integer);
        ])
  in
  Gen.(map (String.concat ";") (list_size (int_range 0 4) clause))

let workload_spec =
  Gen.(
    oneof
      [
        map (( ^ ) "poisson:") number;
        map3 (Printf.sprintf "bursty:%s:%s:%s") number number number;
        map3 (Printf.sprintf "hotspot:%s:%s:%s") number number number;
        map
          (fun l -> "batch:" ^ String.concat "," l)
          (list_size (int_range 1 4) integer);
      ])

let strategy_spec =
  Gen.(
    oneof
      [
        map (( ^ ) "fixed:") number;
        map2 (Printf.sprintf "%s:%s")
          (oneofl [ "decay"; "decay-restart"; "sawtooth"; "backoff"; "slotted" ])
          integer;
      ])

let policy_spec = Gen.oneofl [ "drop-tail"; "drop-newest"; "source-throttle"; "drop" ]

let separators = ":,=;@-"

(* One mutation: case flips, inserted whitespace, a truncation, a doubled
   or dropped separator, or a byte overwritten. *)
let mutate s =
  let open Gen in
  let len = String.length s in
  let seps =
    List.filter (fun i -> String.contains separators s.[i]) (List.init len Fun.id)
  in
  let splice i drop text =
    String.sub s 0 i ^ text ^ String.sub s (i + drop) (len - i - drop)
  in
  frequency
    ([
       ( 2,
         map
           (fun bits ->
             String.mapi
               (fun i c ->
                 if (bits lsr (i mod 60)) land 1 = 1 then Char.uppercase_ascii c
                 else c)
               s)
           int );
       ( 2,
         map2 (fun i ws -> splice i 0 ws) (int_bound len)
           (oneofl [ " "; "\t"; "  "; "\n" ]) );
       (1, map (fun i -> String.sub s 0 i) (int_bound len));
     ]
    @ (if seps = [] then []
       else
         [
           ( 2,
             map2
               (fun i double -> splice i 1 (if double then String.make 2 s.[i] else ""))
               (oneofl seps) bool );
         ])
    @
    if len = 0 then []
    else [ (1, map2 (fun i c -> splice i 1 (String.make 1 c)) (int_bound (len - 1)) char) ])

let mutated canonical =
  Gen.(
    frequency
      [
        (3, canonical);
        ( 6,
          canonical >>= fun s ->
          int_range 1 3 >>= fun k ->
          let rec go k s = if k = 0 then return s else mutate s >>= go (k - 1) in
          go k s );
        (1, string_size ~gen:char (int_bound 24));
      ])

let spec_arb gen = make ~print:(Printf.sprintf "%S") (mutated gen)

(* Whatever the frozen parser accepts, the new one accepts with the same
   value; it may accept more (the widenings). *)
let keeps_frozen name gen ~frozen ~parse ~same =
  Test.make ~count:3000 ~name:(name ^ " spec: every frozen reading is kept")
    (spec_arb gen) (fun s ->
      match frozen s with
      | Error _ -> true
      | Ok v -> (
          match parse s with
          | Ok v' -> same v v' || Test.fail_reportf "%S reads differently" s
          | Error e -> Test.fail_reportf "%S rejected: %s" s e))

let frozen_properties =
  [
    keeps_frozen "reception" reception_spec ~frozen:Spec.reception
      ~parse:Reception.of_spec ~same:( = );
    keeps_frozen "faults" faults_spec ~frozen:frozen_faults ~parse:faults ~same:same_plan;
    keeps_frozen "workload" workload_spec ~frozen:Spec.workload ~parse:Workload.parse
      ~same:( = );
    keeps_frozen "strategy" strategy_spec ~frozen:Spec.strategy ~parse:S.parse
      ~same:( = );
    keeps_frozen "policy" policy_spec ~frozen:Spec.policy ~parse:Serve.parse_policy
      ~same:( = );
  ]

let never_raises =
  Test.make ~count:3000 ~name:"no spec parser raises on any input"
    (spec_arb
       Gen.(oneof [ reception_spec; faults_spec; workload_spec; strategy_spec ]))
    (fun s ->
      ignore (Reception.of_spec s);
      ignore (faults s);
      ignore (Workload.parse s);
      ignore (S.parse s);
      ignore (Serve.parse_policy s);
      true)

(* --- round trips over arbitrary finite floats --- *)

let finite = Gen.(map (fun x -> if Float.is_finite x then Float.abs x else 1.0) float)

let positive = Gen.map (fun x -> if x > 0.0 then x else 1.0) finite

let fraction = Gen.(oneof [ float_bound_inclusive 1.0; oneofl [ 0.0; 1.0; 1.0 /. 3.0 ] ])

let reception_gen =
  Gen.(
    oneof
      [
        return Reception.dual_graph;
        map3
          (fun (alpha, beta) (noise, power) (jam, near) ->
            Reception.sinr ~alpha ~beta ~noise ~power ~jam ~near ())
          (pair positive positive) (pair finite positive)
          (pair finite (map (fun i -> max 1 (abs i)) int));
      ])

let workload_gen =
  Gen.(
    oneof
      [
        map (fun rate -> Workload.Poisson { rate }) finite;
        map3
          (fun rate on_mean off_mean -> Workload.Bursty { rate; on_mean; off_mean })
          finite
          (map (Float.max 1.0) finite)
          (map (Float.max 1.0) finite);
        map3
          (fun rate hot_fraction hot_share ->
            Workload.Hotspot { rate; hot_fraction; hot_share })
          finite fraction fraction;
        map
          (fun sources -> Workload.Batch { sources })
          (list_size (int_range 1 5) (map (fun i -> i land max_int) int));
      ])

let strategy_gen =
  Gen.(
    oneof
      [
        map (fun p -> S.Fixed { p }) fraction;
        map (fun levels -> S.Decay { levels }) (int_range 1 62);
        map (fun levels -> S.Decay_restart { levels }) (int_range 1 62);
        map (fun levels -> S.Sawtooth { levels }) (int_range 1 62);
        map (fun max_exp -> S.Backoff { max_exp }) (int_range 0 62);
        map (fun slots -> S.Slotted { slots }) (int_range 1 max_int);
      ])

let round_trip name gen print parse =
  Test.make ~count:1000 ~name:(name ^ " spec: parse (print v) = Ok v")
    (make ~print gen) (fun v ->
      match parse (print v) with
      | Ok v' -> v = v' || Test.fail_reportf "%S reads back differently" (print v)
      | Error e -> Test.fail_reportf "%S rejected: %s" (print v) e)

(* Clause lists and their test-side printer: [of_spec] of the printed
   clauses is the plan [make] builds from the lists, or an error exactly
   when [make] raises. *)
let clauses_gen =
  Gen.(
    triple
      (list_size (int_bound 4) (pair (int_bound (n - 1)) (int_bound 100)))
      (list_size (int_bound 3) (pair (int_bound (n - 1)) (int_bound 150)))
      (list_size (int_bound 4)
         (triple (int_bound (n - 1)) (int_bound 100) (int_range 1 150))))

let print_clauses (crashes, restarts, jams) =
  String.concat ";"
    (List.map (fun (v, r) -> Printf.sprintf "crash:%d@%d" v r) crashes
    @ List.map (fun (v, r) -> Printf.sprintf "restart:%d@%d" v r) restarts
    @ List.map (fun (v, f, len) -> Printf.sprintf "jam:%d@%d-%d" v f (f + len)) jams)

let faults_round_trip =
  Test.make ~count:1000 ~name:"faults spec: of_spec (print clauses) = make clauses"
    (make ~print:print_clauses clauses_gen) (fun ((crashes, restarts, jams) as c) ->
      let jams = List.map (fun (v, f, len) -> (v, f, f + len)) jams in
      match (Plan.make ~n ~crashes ~restarts ~jams (), faults (print_clauses c)) with
      | plan, Ok plan' -> same_plan plan plan'
      | _, Error e -> Test.fail_reportf "rejected: %s" e
      | exception Invalid_argument _ -> Result.is_error (faults (print_clauses c)))

let round_trips =
  [
    round_trip "reception" reception_gen Reception.to_spec Reception.of_spec;
    round_trip "strategy" strategy_gen S.to_spec S.parse;
    round_trip "policy"
      Gen.(oneofl Serve.[ Drop_tail; Drop_newest; Source_throttle ])
      Serve.policy_to_string Serve.parse_policy;
    round_trip "workload" workload_gen Workload.process_to_string Workload.parse;
    faults_round_trip;
  ]

(* --- unit cases: the widenings and the shared rules --- *)

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let test_widenings () =
  Alcotest.(check bool)
    "fault kinds ignore case" true
    (same_plan (ok (faults "CRASH:3@10")) (ok (faults "crash:3@10")));
  Alcotest.(check bool) "frozen faults were case-sensitive" true
    (Result.is_error (frozen_faults "CRASH:3@10"));
  Alcotest.(check bool) "decay: 5 parses" true (S.parse "decay: 5" = Ok (S.Decay { levels = 5 }));
  Alcotest.(check bool) "frozen strategy rejected it" true
    (Result.is_error (Spec.strategy "decay: 5"));
  Alcotest.(check bool)
    "workload fields are trimmed" true
    (Workload.parse "batch: 1, 2" = Ok (Workload.Batch { sources = [ 1; 2 ] }))

let test_shared_rules () =
  let err = function Ok _ -> Alcotest.fail "accepted" | Error e -> e in
  Alcotest.(check string)
    "error names the grammar and the whole spec"
    "strategy spec \"decay:x\": \"x\" is not an integer" (err (S.parse "decay:x"));
  Alcotest.(check bool) "an empty list item is read, not dropped" true
    (Result.is_error (Workload.parse "batch:1,,2"));
  Alcotest.(check bool) "non-finite numbers are rejected" true
    (Result.is_error (Workload.parse "poisson:inf"));
  Alcotest.(check bool) "a bare tag takes no arguments" true
    (Result.is_error (Serve.parse_policy "drop-tail:"));
  Alcotest.(check bool) "only the last value of a repeated key is read" true
    (Reception.of_spec "sinr:alpha=x,ALPHA = 4" = Ok (Reception.sinr ~alpha:4.0 ()));
  Alcotest.(check bool) "two churn clauses are refused" true
    (Result.is_error (faults "churn:0.1;churn:0.2"));
  Alcotest.(check string) "shortest exact float text" "0.1"
    (Grammar.float_to_string 0.1);
  List.iter
    (fun rate ->
      let p = Workload.Poisson { rate } in
      Alcotest.(check bool)
        (Printf.sprintf "rate %.17g reads back exactly" rate)
        true
        (Workload.parse (Workload.process_to_string p) = Ok p))
    [ 0.1234567; 1.0 /. 3.0 ]

let suite =
  [
    Alcotest.test_case "widenings: fault kind case, strategy and workload spaces"
      `Quick test_widenings;
    Alcotest.test_case "shared rules and error format" `Quick test_shared_rules;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      (frozen_properties @ (never_raises :: round_trips))
