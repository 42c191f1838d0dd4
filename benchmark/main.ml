(* The repository benchmark.  README.md documents the workloads, the
   metrics and their bounds, and how to read a traced run.

     main.exe                              all workloads, untraced then traced,
                                           each in its own child process
     main.exe --workload W [--trace 1]     one workload in this process
     main.exe --smoke                      all workloads at tiny sizes
     main.exe --compare A.json B.json      judge B against A, metric by metric
     main.exe --spec BENCHMARK.json        check it lists what a run prints

   Every run ends its standard output with one JSON line:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

open Benchkit

let workloads =
  [
    ("lb-field", Engine_wl.lb_field);
    ("dual-1e6", Engine_wl.dual_1e6);
    ("sinr-1e5", Engine_wl.sinr_1e5);
    ("serve-sim", Serve_wl.serve_sim);
  ]

let default_seconds = 12.0

let usage_exit msg =
  prerr_endline ("benchmark: " ^ msg);
  exit 2

let rec mkdir_p dir =
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let with_out path f =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let nums a = Jsonv.Arr (Array.to_list (Array.map (fun x -> Jsonv.Num x) a))

let int_num i = Jsonv.Num (float_of_int i)

(* --- one workload, in this process --- *)

let write_spans ~workload path spans =
  with_out path (fun oc ->
      List.iter
        (fun (rep, (s : Span.t)) ->
          output_string oc
            (Jsonv.to_string
               (Jsonv.Obj
                  [
                    ("workload", Str workload);
                    ("rep", int_num rep);
                    ("round", int_num s.round);
                    ("name", Str s.name);
                    ("parent", Str s.parent);
                    ("start", int_num s.start);
                    ("end", int_num s.stop);
                    ("words", Num s.words);
                  ]));
          output_char oc '\n')
        spans)

let run_one (ctx : Meter.ctx) ~workload ~spans_dir =
  let f =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None -> usage_exit ("unknown workload " ^ workload)
  in
  let o : Meter.outcome = f ctx in
  let metrics = Meter.complete ~trace:ctx.trace o.metrics in
  List.iter
    (fun (m : Meter.metric) ->
      let v = Meter.value m and n = Array.length m.samples in
      (* the median, then the highest percentile the sample supports *)
      let tail =
        match Stat.supported_tail n with
        | Some p -> Printf.sprintf " p%g=%.6g" p (Stat.percentile m.samples p)
        | None -> ""
      in
      Printf.printf "%s %s %s %s n=%d%s\n" workload m.name
        (if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.6g" v)
        m.unit_ n tail)
    metrics;
  (match spans_dir with
  | Some dir when o.spans <> [] ->
      let path = Filename.concat dir ("spans-" ^ workload ^ ".jsonl") in
      write_spans ~workload path o.spans;
      Printf.printf "%s spans written to %s\n" workload path
  | _ -> ());
  let correct = List.for_all snd o.checks in
  (* Samples and checks for the parent process and --compare. *)
  print_endline
    ("detail "
    ^ Jsonv.to_string
        (Jsonv.Obj
           [
             ("workload", Str workload);
             ("params", Obj o.params);
             ( "samples",
               Obj (List.map (fun (m : Meter.metric) -> (m.name, nums m.samples)) metrics) );
             ( "checks",
               Arr (List.map (fun (c, ok) -> Jsonv.Obj [ ("check", Str c); ("ok", Bool ok) ]) o.checks)
             );
           ]));
  print_endline
    (Jsonv.to_string
       (Jsonv.Obj
          [
            ("correct", Bool correct);
            ("attempted", int_num o.attempted);
            ("failed", int_num o.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (m : Meter.metric) ->
                     (m.name, Jsonv.Obj [ ("value", Num (Meter.value m)); ("unit", Str m.unit_) ]))
                   metrics) );
          ]));
  if correct then 0 else 1

(* --- all workloads, each in a child process --- *)

let command_output cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let out = In_channel.input_all ic in
    match Unix.close_process_in ic with Unix.WEXITED 0 -> Some (String.trim out) | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

let is_record line =
  String.starts_with ~prefix:"detail " line || String.starts_with ~prefix:"{" line

(* Run a child to completion, echoing its metric lines; its last two
   lines are the detail record and the result. *)
let child args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = ref [] in
  (try
     while true do
       let line = input_line ic in
       if not (is_record line) then print_endline line;
       lines := line :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  match (status, !lines) with
  | Unix.WEXITED code, last :: detail :: _ when String.starts_with ~prefix:"detail " detail -> (
      match (Jsonv.parse last, Jsonv.parse (String.sub detail 7 (String.length detail - 7))) with
      | Ok result, Ok detail -> Ok (code, result, detail)
      | Error e, _ | _, Error e -> Error ("unparsable child output: " ^ e))
  | Unix.WEXITED code, _ -> Error (Printf.sprintf "child exited %d without a result" code)
  | _ -> Error "child was killed"

let run_all (ctx : Meter.ctx) ~out =
  let ok = ref true in
  let pass trace =
    List.map
      (fun (workload, _) ->
        let args =
          [
            "--workload"; workload; "--seed"; string_of_int ctx.seed; "--seconds";
            Printf.sprintf "%g" ctx.seconds; "--trace"; (if trace then "1" else "0");
          ]
          @ if ctx.smoke then [ "--smoke" ] else []
        in
        match child args with
        | Ok (code, result, detail) ->
            if code <> 0 || Jsonv.member "correct" result <> Some (Bool true) then ok := false;
            (workload, Some (result, detail))
        | Error e ->
            Printf.eprintf "%s: %s\n%!" workload e;
            ok := false;
            (workload, None))
      workloads
  in
  let untraced = pass false in
  let traced = pass true in
  let entry (workload, u) =
    let t = List.assoc workload traced in
    let field k = function Some (_, d) -> Jsonv.member k d | None -> None in
    let res k = function Some (r, _) -> Jsonv.member k r | None -> None in
    let opt = Option.value ~default:Jsonv.Null in
    Jsonv.Obj
      [
        ("name", Str workload);
        ("params", opt (field "params" u));
        ( "correct",
          Bool (res "correct" u = Some (Bool true) && res "correct" t = Some (Bool true)) );
        ("attempted", opt (res "attempted" u));
        ("failed", opt (res "failed" u));
        ("end_to_end", opt (field "samples" u));
        ("per_layer", opt (field "samples" t));
        ( "checks",
          Arr
            (List.concat_map
               (fun d -> match field "checks" d with Some (Arr l) -> l | _ -> [])
               [ u; t ]) );
      ]
  in
  let git_rev = Option.value (command_output "git rev-parse --short HEAD") ~default:"unknown" in
  let dirty =
    match command_output "git status --porcelain --untracked-files=no" with
    | Some s -> Jsonv.Bool (s <> "")
    | None -> Null
  in
  let results =
    Jsonv.Obj
      [
        ("git_rev", Str git_rev);
        ("dirty", dirty);
        ("nproc", int_num (Domain.recommended_domain_count ()));
        ("ocaml", Str Sys.ocaml_version);
        ("seed", int_num ctx.seed);
        ("seconds", Num ctx.seconds);
        ("smoke", Bool ctx.smoke);
        ("workloads", Arr (List.map entry untraced));
      ]
  in
  (match out with
  | Some path ->
      with_out path (fun oc ->
          output_string oc (Jsonv.to_string results);
          output_char oc '\n');
      Printf.printf "results written to %s\n" path
  | None -> ());
  Printf.printf "all checks %s\n" (if !ok then "passed" else "FAILED");
  if !ok then 0 else 1

(* --- compare two results files --- *)

let load path =
  match Jsonv.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok v -> v
  | Error e -> usage_exit (path ^ ": " ^ e)
  | exception Sys_error e -> usage_exit e

let compare_files a_path b_path =
  let a = load a_path and b = load b_path in
  let get k v = Option.value (Jsonv.member k v) ~default:Jsonv.Null in
  if get "seed" a <> get "seed" b then
    usage_exit "refusing to compare results taken at different seeds";
  let by_name v =
    match get "workloads" v with
    | Arr l -> List.map (fun w -> (Option.value (Jsonv.to_str (get "name" w)) ~default:"?", w)) l
    | _ -> usage_exit "results file has no workloads"
  in
  let wa = by_name a and wb = by_name b in
  List.iter
    (fun (name, w) ->
      match List.assoc_opt name wb with
      | Some w' when get "params" w <> get "params" w' ->
          usage_exit ("refusing to compare " ^ name ^ ": workload parameters differ")
      | _ -> ())
    wa;
  Printf.printf "A = %s (rev %s)\nB = %s (rev %s)\n" a_path (Jsonv.to_string (get "git_rev" a)) b_path
    (Jsonv.to_string (get "git_rev" b));
  let worse = ref 0 and unresolved = ref 0 in
  List.iter
    (fun (name, w) ->
      match List.assoc_opt name wb with
      | None -> Printf.printf "%s: missing from B\n" name
      | Some w' ->
          List.iter
            (fun (s : Meter.spec) ->
              let samples v =
                match Jsonv.member s.name (get "end_to_end" v) with
                | Some (Arr l) -> Array.of_list (List.filter_map Jsonv.to_num l)
                | _ -> [||]
              in
              let sa = samples w and sb = samples w' in
              if Array.length sa = 0 || Array.length sb = 0 then
                Printf.printf "%-9s %-27s no samples\n" name s.name
              else begin
                let show x =
                  let q1, med, q3 = Stat.quartiles x in
                  Printf.sprintf "%.4g [%.4g, %.4g] n=%d" med q1 q3 (Array.length x)
                in
                let ma = Stat.median sa and mb = Stat.median sb in
                let v = Stat.verdict s.better ~bound:s.bound ~floor:s.floor ~base:sa ~change:sb in
                (match v with Worse -> incr worse | Unresolved -> incr unresolved | _ -> ());
                Printf.printf "%-9s %-27s A %s  B %s  %+.2f%% (allowed %.3g %s)  %s\n" name s.name
                  (show sa) (show sb)
                  (100.0 *. (mb -. ma) /. ma)
                  (Stat.allowed ~bound:s.bound ~floor:s.floor ma)
                  s.unit_ (Stat.string_of_verdict v)
              end)
            Meter.end_to_end)
    wa;
  Printf.printf "%d worse, %d unresolved\n" !worse !unresolved;
  if !worse > 0 then 1 else 0

(* --- BENCHMARK.json against what this program runs and prints --- *)

(* The workloads, the end-to-end metrics (unit, direction, bound) and
   the per-layer metrics (unit) must be the ones listed, in order: a
   run prints exactly those. *)
let check_spec path =
  let spec = load path in
  let entries k = match Jsonv.member k spec with Some (Arr l) -> l | _ -> [] in
  let field k e = Option.value (Jsonv.member k e) ~default:Jsonv.Null in
  let keyed keys k = List.map (fun e -> List.map (fun key -> field key e) keys) (entries k) in
  let str s = Jsonv.Str s in
  let mismatches =
    List.filter_map
      (fun (what, listed, runs) -> if listed = runs then None else Some what)
      [
        ("workloads", keyed [ "name" ] "workloads", List.map (fun (w, _) -> [ str w ]) workloads);
        ( "end_to_end",
          keyed [ "name"; "unit"; "better"; "bound" ] "end_to_end",
          List.map
            (fun (s : Meter.spec) ->
              [
                str s.name; str s.unit_; str (match s.better with Lower -> "lower" | Higher -> "higher");
                Num s.bound;
              ])
            Meter.end_to_end );
        ( "per_layer",
          keyed [ "name"; "unit" ] "per_layer",
          List.map (fun (name, unit_) -> [ str name; str unit_ ]) Meter.per_layer );
      ]
  in
  List.iter (fun what -> Printf.eprintf "%s: %s differs from the benchmark's own list\n" path what) mismatches;
  if mismatches = [] then 0 else 1

(* --- command line --- *)

let () =
  let workload = ref None and seed = ref Meter.default_seed and seconds = ref default_seconds in
  let trace = ref 0 and smoke = ref false and out = ref None in
  let compare = ref None and spec_file = ref None in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload in-process");
      ("--seed", Arg.Set_int seed, "N input seed (default 20260706)");
      ("--seconds", Arg.Set_float seconds, "S measuring budget per run (default 12)");
      ("--trace", Arg.Set_int trace, "0|1 the per-layer pass");
      ("--smoke", Arg.Set smoke, " tiny sizes, every check on");
      ("--out", Arg.String (fun s -> out := Some s), "PATH results file");
      ( "--compare",
        Arg.Tuple
          (let a = ref "" in
           [ Arg.Set_string a; Arg.String (fun b -> compare := Some (!a, b)) ]),
        "A.json B.json compare two results files" );
      ( "--spec",
        Arg.String (fun s -> spec_file := Some s),
        "BENCHMARK.json check that it lists what this program runs and prints" );
    ]
  in
  let usage = "main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]" in
  (try Arg.parse_argv Sys.argv spec (fun a -> usage_exit ("unexpected argument " ^ a)) usage with
  | Arg.Bad msg -> usage_exit msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  if !trace <> 0 && !trace <> 1 then usage_exit "--trace takes 0 or 1";
  if !seed < 0 then usage_exit "--seed must be non-negative";
  if not (!seconds >= 0.0) then usage_exit "--seconds must be non-negative";
  (* The smoke run measures nothing for long: the minimum reps only. *)
  let seconds = if !smoke then 0.0 else !seconds in
  let ctx = { Meter.seed = !seed; seconds; smoke = !smoke; trace = !trace = 1 } in
  let default_dir = Filename.concat "_build" "benchmark" in
  exit
    (match (!compare, !spec_file, !workload) with
    | Some (a, b), _, _ -> compare_files a b
    | None, Some path, _ -> check_spec path
    | None, None, Some w -> run_one ctx ~workload:w ~spans_dir:(if !smoke then None else Some default_dir)
    | None, None, None ->
        let out =
          if !smoke then !out
          else
            Some
              (Option.value !out
                 ~default:(Filename.concat default_dir (Printf.sprintf "results-%d.json" !seed)))
        in
        run_all ctx ~out)
