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
   hazard: still alive at round r with probability (1-rate)^r.  Returns
   the (node, round) crash and restart lists in ascending node order. *)
let churn_draws ~seed ~n ~rounds ~rate ?downtime ~protect () =
  if not (rate >= 0.0 && rate < 1.0) then
    invalid_arg "Faults.Plan.churn: rate must be in [0, 1)";
  (match downtime with
  | Some d when d <= 0 -> invalid_arg "Faults.Plan.churn: downtime must be > 0"
  | _ -> ());
  let crashes = ref [] and restarts = ref [] in
  if rate > 0.0 then begin
    let log_keep = log1p (-.rate) in
    for v = n - 1 downto 0 do
      if not (List.mem v protect) then begin
        let h = Prng.Rng.node_hash ~seed ~node:v ~round:0 in
        let u = float_of_int h /. 9007199254740992.0 in
        (* first round >= 1 with a crash; u = 0 maps to round 1 *)
        let gap = floor (log1p (-.u) /. log_keep) in
        if gap < float_of_int (rounds - 1) then begin
          let crash = 1 + int_of_float gap in
          crashes := (v, crash) :: !crashes;
          Option.iter (fun d -> restarts := (v, crash + d) :: !restarts) downtime
        end
      end
    done
  end;
  (!crashes, !restarts)

let churn ~seed ~n ~rounds ~rate ?downtime ?(protect = []) () =
  let crashes, restarts = churn_draws ~seed ~n ~rounds ~rate ?downtime ~protect () in
  make ~n ~crashes ~restarts ()

let of_spec ~seed ~n ~rounds =
  let ( let* ) = Result.bind in
  let kind tag read make = (tag, Grammar.args (fun a -> Result.map make (read a))) in
  let node_at = Grammar.(pair '@' int int) in
  let rate_downtime a =
    if String.contains a ',' then
      Result.map (fun (r, d) -> (r, Some d)) Grammar.(pair ',' float int a)
    else Result.map (fun r -> (r, None)) (Grammar.float a)
  in
  let clause =
    Grammar.tags
      [
        kind "crash" node_at (fun c -> `Crash c);
        kind "restart" node_at (fun r -> `Restart r);
        kind "jam"
          Grammar.(pair '@' int (pair '-' int int))
          (fun (v, (f, u)) -> `Jam (v, f, u));
        kind "churn" rate_downtime (fun c -> `Churn c);
      ]
  in
  Grammar.parse "faults" (fun spec ->
      let* clauses =
        Grammar.list ~sep:';'
          (fun c -> if String.trim c = "" then Ok `Blank else clause c)
          spec
      in
      let pick f = List.filter_map f clauses in
      let crashes = pick (function `Crash c -> Some c | _ -> None)
      and restarts = pick (function `Restart r -> Some r | _ -> None)
      and jams = pick (function `Jam j -> Some j | _ -> None) in
      match pick (function `Churn c -> Some c | _ -> None) with
      | _ :: _ :: _ -> Error "more than one churn clause"
      | churn -> (
          try
            (* explicit crash clauses take precedence over churn draws *)
            let churned, revived =
              match churn with
              | [] -> ([], [])
              | (rate, downtime) :: _ ->
                  churn_draws ~seed ~n ~rounds ~rate ?downtime
                    ~protect:(List.map fst crashes) ()
            in
            Ok
              (make ~n ~crashes:(crashes @ churned)
                 ~restarts:(restarts @ revived) ~jams ())
          with Invalid_argument msg -> Error msg))

let crash_round t v =
  if v < 0 || v >= t.n then invalid_arg "Faults.Plan.crash_round";
  if t.crash.(v) = max_int then None else Some t.crash.(v)

let restart_round t v =
  if v < 0 || v >= t.n then invalid_arg "Faults.Plan.restart_round";
  if t.restart.(v) = max_int then None else Some t.restart.(v)

let alive t ~node ~round = not (t.crash.(node) <= round && round < t.restart.(node))

let alive_through t ~node ~from ~until =
  not (t.crash.(node) <= until && t.restart.(node) > from)

let has_jams t = Array.length t.jam_from > 0

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
