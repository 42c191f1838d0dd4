(* Deterministic fault plans.  See plan.mli for the model.

   Representation: per-node crash/restart rounds (max_int = never) plus a
   flat CSR of jam windows, and a precomputed transition array sorted by
   (round, node) that the engine walks with a cursor.  Everything is
   derived eagerly at construction, so the per-round queries in the
   engine's hot loop are array reads and short scans. *)

type event = Crash | Restart

type t = {
  n : int;
  crash : int array; (* crash.(v) = round v dies, or max_int *)
  restart : int array; (* restart.(v) > crash.(v), or max_int *)
  jam_off : int array; (* CSR offsets into jam_from/jam_until, length n+1 *)
  jam_from : int array;
  jam_until : int array;
  transitions : (int * int * event) array; (* (round, node, ev), sorted *)
}

let n t = t.n

let is_empty t =
  Array.length t.transitions = 0 && Array.length t.jam_from = 0

let build ~n ~crash ~restart ~jams =
  (* jams: (node, from, until) list, validated by callers for ranges. *)
  let counts = Array.make (n + 1) 0 in
  List.iter (fun (v, _, _) -> counts.(v + 1) <- counts.(v + 1) + 1) jams;
  for i = 0 to n - 1 do
    counts.(i + 1) <- counts.(i + 1) + counts.(i)
  done;
  let jam_off = counts in
  let total = jam_off.(n) in
  let jam_from = Array.make total 0 and jam_until = Array.make total 0 in
  let cursor = Array.copy jam_off in
  List.iter
    (fun (v, f, u) ->
      let i = cursor.(v) in
      cursor.(v) <- i + 1;
      jam_from.(i) <- f;
      jam_until.(i) <- u)
    jams;
  (* sort each node's windows by start and reject overlaps *)
  for v = 0 to n - 1 do
    let lo = jam_off.(v) and hi = jam_off.(v + 1) in
    for i = lo + 1 to hi - 1 do
      (* insertion sort: window counts per node are tiny *)
      let f = jam_from.(i) and u = jam_until.(i) in
      let j = ref i in
      while !j > lo && jam_from.(!j - 1) > f do
        jam_from.(!j) <- jam_from.(!j - 1);
        jam_until.(!j) <- jam_until.(!j - 1);
        decr j
      done;
      jam_from.(!j) <- f;
      jam_until.(!j) <- u
    done;
    for i = lo + 1 to hi - 1 do
      if jam_from.(i) < jam_until.(i - 1) then
        invalid_arg
          (Printf.sprintf "Faults.Plan: overlapping jam windows for node %d" v)
    done
  done;
  let transitions = ref [] in
  for v = 0 to n - 1 do
    if crash.(v) <> max_int then begin
      transitions := (crash.(v), v, Crash) :: !transitions;
      if restart.(v) <> max_int then
        transitions := (restart.(v), v, Restart) :: !transitions
    end
  done;
  let transitions = Array.of_list !transitions in
  Array.sort compare transitions;
  { n; crash; restart; jam_off; jam_from; jam_until; transitions }

let empty ~n =
  if n < 0 then invalid_arg "Faults.Plan.empty: negative n";
  build ~n
    ~crash:(Array.make n max_int)
    ~restart:(Array.make n max_int)
    ~jams:[]

let make ~n ?(crashes = []) ?(restarts = []) ?(jams = []) () =
  if n < 0 then invalid_arg "Faults.Plan.make: negative n";
  let check_node what v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Faults.Plan.make: %s node %d out of range" what v)
  in
  let crash = Array.make n max_int and restart = Array.make n max_int in
  List.iter
    (fun (v, r) ->
      check_node "crash" v;
      if r < 0 then invalid_arg "Faults.Plan.make: negative crash round";
      if crash.(v) <> max_int then
        invalid_arg (Printf.sprintf "Faults.Plan.make: node %d crashes twice" v);
      crash.(v) <- r)
    crashes;
  List.iter
    (fun (v, r) ->
      check_node "restart" v;
      if restart.(v) <> max_int then
        invalid_arg (Printf.sprintf "Faults.Plan.make: node %d restarts twice" v);
      if crash.(v) = max_int then
        invalid_arg
          (Printf.sprintf "Faults.Plan.make: node %d restarts without crashing" v);
      if r <= crash.(v) then
        invalid_arg
          (Printf.sprintf
             "Faults.Plan.make: node %d restart round %d not after crash" v r);
      restart.(v) <- r)
    restarts;
  List.iter
    (fun (v, f, u) ->
      check_node "jam" v;
      if f < 0 || u <= f then
        invalid_arg
          (Printf.sprintf "Faults.Plan.make: bad jam window [%d, %d) for node %d"
             f u v))
    jams;
  build ~n ~crash ~restart ~jams

(* Per-node crash draw: an independent SplitMix stream keyed by
   (seed, node), so the plan is identical no matter how trials are split
   across domains.  The geometric draw inverts the CDF of the per-round
   hazard: still alive at round r with probability (1-rate)^r. *)
let churn ~seed ~n ~rounds ~rate ?downtime ?(protect = []) () =
  if rate < 0.0 || rate >= 1.0 then
    invalid_arg "Faults.Plan.churn: rate must be in [0, 1)";
  (match downtime with
  | Some d when d <= 0 -> invalid_arg "Faults.Plan.churn: downtime must be > 0"
  | _ -> ());
  if rate = 0.0 then empty ~n
  else begin
    let crash = Array.make n max_int and restart = Array.make n max_int in
    let log_keep = log1p (-.rate) in
    for v = 0 to n - 1 do
      if not (List.mem v protect) then begin
        let h = Prng.Rng.node_hash ~seed ~node:v ~round:0 in
        let u = float_of_int h /. 9007199254740992.0 in
        (* first round >= 1 with a crash; u = 0 maps to round 1 *)
        let gap = floor (log1p (-.u) /. log_keep) in
        if gap < float_of_int (rounds - 1) then begin
          crash.(v) <- 1 + int_of_float gap;
          match downtime with
          | Some d -> restart.(v) <- crash.(v) + d
          | None -> ()
        end
      end
    done;
    build ~n ~crash ~restart ~jams:[]
  end

let crash_round_arr t v =
  if t.crash.(v) = max_int then None else Some t.crash.(v)

let restart_round_arr t v =
  if t.restart.(v) = max_int then None else Some t.restart.(v)

let of_spec ~seed ~n ~rounds spec =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let int_of s = int_of_string_opt (String.trim s) in
  let clauses =
    String.split_on_char ';' spec
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  let rec parse clauses crashes restarts jams churn_clause =
    match clauses with
    | [] -> Ok (crashes, restarts, jams, churn_clause)
    | clause :: rest -> (
        match String.index_opt clause ':' with
        | None -> fail "clause %S: expected KIND:ARGS" clause
        | Some i -> (
            let kind = String.trim (String.sub clause 0 i) in
            let args =
              String.sub clause (i + 1) (String.length clause - i - 1)
            in
            let node_at () =
              match String.split_on_char '@' args with
              | [ v; r ] -> (
                  match (int_of v, int_of r) with
                  | Some v, Some r -> Ok (v, r)
                  | _ -> fail "clause %S: expected NODE@ROUND" clause)
              | _ -> fail "clause %S: expected NODE@ROUND" clause
            in
            match kind with
            | "crash" -> (
                match node_at () with
                | Ok c -> parse rest (c :: crashes) restarts jams churn_clause
                | Error e -> Error e)
            | "restart" -> (
                match node_at () with
                | Ok r -> parse rest crashes (r :: restarts) jams churn_clause
                | Error e -> Error e)
            | "jam" -> (
                match String.split_on_char '@' args with
                | [ v; window ] -> (
                    match (int_of v, String.split_on_char '-' window) with
                    | Some v, [ f; u ] -> (
                        match (int_of f, int_of u) with
                        | Some f, Some u ->
                            parse rest crashes restarts ((v, f, u) :: jams)
                              churn_clause
                        | _ -> fail "clause %S: expected NODE@FROM-UNTIL" clause)
                    | _ -> fail "clause %S: expected NODE@FROM-UNTIL" clause)
                | _ -> fail "clause %S: expected NODE@FROM-UNTIL" clause)
            | "churn" -> (
                if churn_clause <> None then
                  fail "clause %S: duplicate churn clause" clause
                else
                  match String.split_on_char ',' args with
                  | [ rate ] -> (
                      match float_of_string_opt (String.trim rate) with
                      | Some rate when rate >= 0.0 && rate < 1.0 ->
                          parse rest crashes restarts jams (Some (rate, None))
                      | _ -> fail "clause %S: expected RATE in [0,1)" clause)
                  | [ rate; down ] -> (
                      match
                        (float_of_string_opt (String.trim rate), int_of down)
                      with
                      | Some rate, Some d when rate >= 0.0 && rate < 1.0 && d > 0
                        ->
                          parse rest crashes restarts jams (Some (rate, Some d))
                      | _ -> fail "clause %S: expected RATE[,DOWNTIME]" clause)
                  | _ -> fail "clause %S: expected RATE[,DOWNTIME]" clause)
            | _ -> fail "clause %S: unknown kind %S" clause kind))
  in
  match parse clauses [] [] [] None with
  | Error e -> Error e
  | Ok (crashes, restarts, jams, churn_clause) -> (
      try
        let base =
          match churn_clause with
          | None -> empty ~n
          | Some (rate, downtime) ->
              (* explicit crash clauses take precedence over churn draws *)
              let protect = List.map fst crashes in
              churn ~seed ~n ~rounds ~rate ?downtime ~protect ()
        in
        let crashes =
          List.fold_left
            (fun acc v ->
              match crash_round_arr base v with
              | Some r -> (v, r) :: acc
              | None -> acc)
            crashes
            (List.init n (fun v -> v))
        and restarts =
          List.fold_left
            (fun acc v ->
              match restart_round_arr base v with
              | Some r -> (v, r) :: acc
              | None -> acc)
            restarts
            (List.init n (fun v -> v))
        in
        Ok (make ~n ~crashes ~restarts ~jams ())
      with Invalid_argument msg -> Error msg)

let crash_round t v =
  if v < 0 || v >= t.n then invalid_arg "Faults.Plan.crash_round";
  crash_round_arr t v

let restart_round t v =
  if v < 0 || v >= t.n then invalid_arg "Faults.Plan.restart_round";
  restart_round_arr t v

let alive t ~node ~round = not (t.crash.(node) <= round && round < t.restart.(node))

let alive_through t ~node ~from ~until =
  not (t.crash.(node) <= until && t.restart.(node) > from)

let has_jams t = Array.length t.jam_from > 0

let fill_alive t ~round buf =
  if Bytes.length buf < t.n then
    invalid_arg "Faults.Plan.fill_alive: buffer shorter than node count";
  for v = 0 to t.n - 1 do
    Bytes.unsafe_set buf v
      (if t.crash.(v) <= round && round < t.restart.(v) then '\000' else '\001')
  done

let jammed t ~node ~round =
  (* windows are sorted by start and disjoint; stop at the first window
     starting after [round] *)
  let hi = t.jam_off.(node + 1) in
  let rec scan i =
    i < hi
    && t.jam_from.(i) <= round
    && (round < t.jam_until.(i) || scan (i + 1))
  in
  scan t.jam_off.(node)

let pp ppf t =
  let crashes = ref 0 and restarts = ref 0 in
  Array.iter
    (fun (_, _, ev) ->
      match ev with Crash -> incr crashes | Restart -> incr restarts)
    t.transitions;
  Format.fprintf ppf "faults: %d crash%s, %d restart%s, %d jam window%s / %d nodes"
    !crashes
    (if !crashes = 1 then "" else "es")
    !restarts
    (if !restarts = 1 then "" else "s")
    (Array.length t.jam_from)
    (if Array.length t.jam_from = 1 then "" else "s")
    t.n;
  let shown = min 4 (Array.length t.transitions) in
  if shown > 0 then begin
    Format.fprintf ppf " [";
    for i = 0 to shown - 1 do
      let r, v, ev = t.transitions.(i) in
      Format.fprintf ppf "%s%s %d@%d"
        (if i > 0 then "; " else "")
        (match ev with Crash -> "crash" | Restart -> "restart")
        v r
    done;
    if Array.length t.transitions > shown then Format.fprintf ppf "; ...";
    Format.fprintf ppf "]"
  end

type cursor = { plan : t; mutable idx : int }

let cursor plan = { plan; idx = 0 }

let apply cur ~round f =
  let tr = cur.plan.transitions in
  let len = Array.length tr in
  while
    cur.idx < len
    &&
    let r, _, _ = tr.(cur.idx) in
    r <= round
  do
    let _, node, ev = tr.(cur.idx) in
    cur.idx <- cur.idx + 1;
    f node ev
  done
