type kind =
  | Late_ack of { latency : int }
  | Missing_ack of { bcast_round : int }
  | Progress_miss of { phase : int }
  | Delta_breach of { owners : int; bound : int }

type violation = {
  kind : kind;
  node : int;
  round : int;
  detail : string;
  window : Event.t list;
}

let pp_violation ppf v = Format.pp_print_string ppf v.detail

type report = {
  rounds_observed : int;
  validity_violations : int;
  ack_count : int;
  late_ack_count : int;
  missing_ack_count : int;
  max_ack_latency : int;
  reliability_attempts : int;
  reliability_failures : int;
  progress_opportunities : int;
  progress_failures : int;
  progress_latencies : int list;
}

module Graph = Dualgraph.Graph

(* Per-node state is flat arrays indexed by node id (bytes for flags),
   grown on demand when no graph fixes the vertex count. *)
type t = {
  t_ack : int;
  t_prog : int;  (** max_int without one: phases never complete *)
  delta_bound : int option;
  g : Graph.t;  (** empty when absent *)
  g' : Graph.t;
  recent : Sink.t;  (** the evidence ring *)
  mutable cap : int;
  mutable uid : int array;  (** the node's current bcast, min_int = none *)
  mutable since : int array;  (** its bcast round while the ack is owed, else -1 *)
  mutable missed : Bytes.t;  (** the owed ack was already flagged missing *)
  mutable active : Bytes.t;  (** actively broadcasting [uid] *)
  mutable receivers : (int * int) list array;
      (** (receiver, round) of each first recv of the active bcast,
          latest first *)
  mutable last_dead : int array;  (** -1 never dead, max_int while down *)
  mutable commits : int array;  (** committed seed owner, min_int = none *)
  mutable whole : Bytes.t;  (** active in every round of the open phase *)
  mutable first : int array;  (** first qualifying reception's offset, or -1 *)
  deadlines : (int * int * int) Queue.t;  (** (bcast round, node, uid) *)
  mutable acked : (int * int) list;  (** this round's (node, bcast round) *)
  mutable phase : int;  (** the open phase, -1 when none *)
  mutable phase_lo : int;
  mutable commits_dirty : bool;
  mutable cur_round : int;
  mutable finished : bool;
  mutable violations_rev : violation list;
  mutable invalid : int;
  mutable acks : int;
  mutable late : int;
  mutable missing : int;
  mutable max_latency : int;
  mutable attempts : int;
  mutable unreliable : int;
  mutable opportunities : int;
  mutable failures : int;
  mutable latencies_rev : int list;
}

let on b v = Bytes.unsafe_get b v <> '\000'
let set b v x = Bytes.unsafe_set b v (if x then '\001' else '\000')

let create ?(window = 64) ?t_prog ?delta_bound ?(g = Graph.empty 0)
    ?(g' = Graph.empty 0) ~t_ack () =
  if t_ack < 0 then invalid_arg "Audit.create: negative t_ack";
  let n = max (Graph.n g) (Graph.n g') in
  if Graph.n g > 0 && Graph.n g' > 0 && Graph.n g <> n then
    invalid_arg "Audit.create: g and g' disagree on vertex count";
  {
    t_ack;
    t_prog = Option.value t_prog ~default:max_int;
    delta_bound;
    g;
    g';
    recent = Sink.create ~capacity:window ();
    cap = n;
    uid = Array.make n min_int;
    since = Array.make n (-1);
    missed = Bytes.make n '\000';
    active = Bytes.make n '\000';
    receivers = Array.make n [];
    last_dead = Array.make n (-1);
    commits = Array.make n min_int;
    whole = Bytes.make n '\001';
    first = Array.make n (-1);
    deadlines = Queue.create ();
    acked = [];
    phase = -1;
    phase_lo = 0;
    commits_dirty = false;
    cur_round = -1;
    finished = false;
    violations_rev = [];
    invalid = 0;
    acks = 0;
    late = 0;
    missing = 0;
    max_latency = 0;
    attempts = 0;
    unreliable = 0;
    opportunities = 0;
    failures = 0;
    latencies_rev = [];
  }

let ensure t v =
  if v >= t.cap then begin
    let extra = Int.max (v + 1) (2 * t.cap) - t.cap in
    let ints a x = Array.append a (Array.make extra x) in
    let bytes b c = Bytes.cat b (Bytes.make extra c) in
    t.uid <- ints t.uid min_int;
    t.since <- ints t.since (-1);
    t.missed <- bytes t.missed '\000';
    t.active <- bytes t.active '\000';
    t.receivers <- Array.append t.receivers (Array.make extra []);
    t.last_dead <- ints t.last_dead (-1);
    t.commits <- ints t.commits min_int;
    t.whole <- bytes t.whole '\001';
    t.first <- ints t.first (-1);
    t.cap <- t.cap + extra
  end

let flag t kind ~node ~round detail =
  t.violations_rev <-
    { kind; node; round; detail; window = Sink.to_list t.recent } :: t.violations_rev

(* Alive at every round from [from] to now. *)
let survivor t v ~from = t.last_dead.(v) < from

(* Slot [i] of [u]'s closed G'-neighborhood, slots [lo .. off.(u+1) - 1]
   with [lo = off.(u) - 1]: [u] itself, then its G' neighbors. *)
let closed adj ~lo u i = if i = lo then u else adj.(i)

let seed_owners t u =
  if u >= Graph.n t.g' then 0
  else begin
    let off = Graph.csr_offsets t.g' and adj = Graph.csr_neighbors t.g' in
    let lo = off.(u) - 1 and count = ref 0 in
    for i = lo to off.(u + 1) - 1 do
      (* each owner counts at its first occurrence *)
      let owner = t.commits.(closed adj ~lo u i) in
      let fresh = ref (owner <> min_int) in
      for j = lo to i - 1 do
        if t.commits.(closed adj ~lo u j) = owner then fresh := false
      done;
      if !fresh then incr count
    done;
    !count
  end

(* δ check, whenever the commit map changed since the last one (once per
   phase in a normal stream). *)
let check_delta t ~round =
  match t.delta_bound with
  | Some bound when t.commits_dirty ->
      t.commits_dirty <- false;
      for u = 0 to Graph.n t.g' - 1 do
        let owners = seed_owners t u in
        if owners > bound then
          flag t (Delta_breach { owners; bound }) ~node:u ~round
            (Printf.sprintf
               "round %d: node %d sees %d distinct seed owners in its closed \
                G'-neighborhood (bound delta = %d)"
               round u owners bound)
      done
  | _ -> ()

let flag_missing t ~now ~node ~b =
  set t.missed node true;
  t.missing <- t.missing + 1;
  flag t (Missing_ack { bcast_round = b }) ~node ~round:now
    (Printf.sprintf
       "round %d: bcast of node %d (uid %d, issued round %d) unacknowledged \
        after t_ack = %d rounds"
       now node t.uid.(node) b t.t_ack)

(* Flag, in bcast order, every owed ack more than t_ack rounds old after
   [elapsed] rounds; entries of settled acks just drop out. *)
let overdue t ~elapsed ~now =
  while
    (not (Queue.is_empty t.deadlines))
    && (let b, _, _ = Queue.peek t.deadlines in elapsed - b > t.t_ack)
  do
    let b, node, uid = Queue.pop t.deadlines in
    if t.since.(node) = b && t.uid.(node) = uid && not (on t.missed node) then
      flag_missing t ~now ~node ~b
  done

let bcast t ~round ~node ~uid =
  ensure t node;
  t.uid.(node) <- uid;
  t.since.(node) <- round;
  set t.missed node false;
  set t.active node true;
  t.receivers.(node) <- [];
  Queue.push (round, node, uid) t.deadlines

let qualifying t ~src ~uid = src < t.cap && on t.active src && t.uid.(src) = uid

let progress t ~round ~node =
  ensure t node;
  t.phase >= 0 && t.first.(node) < 0
  && (t.first.(node) <- round - t.phase_lo;
      true)

(* [v] received the bcast and has been alive since.  Its latest entry
   is the one that counts: a restart brings back a process that never
   received the bcast. *)
let rec holds t v = function
  | [] -> false
  | (w, r) :: rest -> if w = v then survivor t v ~from:r else holds t v rest

let recv t ~round ~node ~src ~uid =
  ensure t (Int.max node src);
  let current = qualifying t ~src ~uid in
  let repeat = current && holds t node t.receivers.(src) in
  let stray = node < Graph.n t.g' && not (current && Graph.mem_edge t.g' node src) in
  if repeat || stray then t.invalid <- t.invalid + 1
  else if current then t.receivers.(src) <- (node, round) :: t.receivers.(src)

let ack t ~round ~node ~uid =
  ensure t node;
  t.acks <- t.acks + 1;
  let current = t.uid.(node) = uid in
  if not current then t.invalid <- t.invalid + 1;
  let b = if current then t.since.(node) else -1 in
  (* The reliability verdict waits for the round end, so that recvs of
     the same round count. *)
  t.acked <- (node, if b >= 0 then b else round) :: t.acked;
  let latency = if b >= 0 then round - b else 0 in
  if b >= 0 then begin
    t.since.(node) <- -1;
    t.max_latency <- Int.max t.max_latency latency;
    if latency > t.t_ack then begin
      t.late <- t.late + 1;
      (* already flagged missing: late after all, no second violation *)
      if on t.missed node then t.missing <- t.missing - 1
      else
        flag t (Late_ack { latency }) ~node ~round
          (Printf.sprintf
             "round %d: ack of node %d (uid %d) took %d rounds (t_ack = %d)" round
             node uid latency t.t_ack)
    end
  end;
  latency

let seed_commit t ~node ~owner =
  ensure t node;
  t.commits.(node) <- owner;
  t.commits_dirty <- true

let crash t ~round ~node =
  ensure t node;
  t.last_dead.(node) <- max_int;
  set t.active node false;
  set t.whole node false;
  t.receivers.(node) <- [];
  (* A dead sender owes no ack, unless its deadline had already passed. *)
  let b = t.since.(node) in
  if b >= 0 then begin
    if round - b > t.t_ack && not (on t.missed node) then
      flag_missing t ~now:round ~node ~b;
    t.since.(node) <- -1
  end

let restart t ~round ~node =
  ensure t node;
  if t.last_dead.(node) = max_int then t.last_dead.(node) <- round - 1

let phase_start t ~round ~phase =
  check_delta t ~round;
  t.phase <- phase;
  t.phase_lo <- round;
  Bytes.fill t.whole 0 t.cap '\001';
  Array.fill t.first 0 t.cap (-1)

(* Every receiver alive all phase with a reliable neighbor active all
   phase owed a qualifying reception. *)
let close_phase t ~round =
  let off = Graph.csr_offsets t.g and adj = Graph.csr_neighbors t.g in
  for u = 0 to Graph.n t.g - 1 do
    let opportunity = ref false in
    for k = off.(u) to off.(u + 1) - 1 do
      if on t.whole adj.(k) then opportunity := true
    done;
    if !opportunity && survivor t u ~from:t.phase_lo then begin
      t.opportunities <- t.opportunities + 1;
      if t.first.(u) >= 0 then t.latencies_rev <- t.first.(u) :: t.latencies_rev
      else begin
        t.failures <- t.failures + 1;
        flag t (Progress_miss { phase = t.phase }) ~node:u ~round
          (Printf.sprintf
             "round %d: node %d missed the progress deadline of phase %d (a \
              reliable neighbor was active all phase, no qualifying reception)"
             round u t.phase)
      end
    end
  done;
  t.phase <- -1

(* The round's acks: reliability verdicts (owed to the reliable neighbors
   alive since the bcast), then the senders stop broadcasting. *)
let rec settle t = function
  | [] -> ()
  | (u, from) :: rest ->
      t.attempts <- t.attempts + 1;
      if u < Graph.n t.g
         && Graph.fold_neighbors t.g u ~init:false ~f:(fun missed v ->
                missed || (survivor t v ~from && not (List.mem_assoc v t.receivers.(u))))
      then t.unreliable <- t.unreliable + 1;
      t.receivers.(u) <- [];
      set t.active u false;
      settle t rest

let round_end t ~round =
  t.cur_round <- Int.max t.cur_round round;
  (* A node not broadcasting at some round of the phase was not
     broadcasting throughout it; the round's acked senders stop after
     the check. *)
  if t.phase >= 0 then
    for v = 0 to t.cap - 1 do
      if not (on t.active v) then set t.whole v false
    done;
  let acked = t.acked in
  t.acked <- [];
  settle t acked;
  overdue t ~elapsed:round ~now:round;
  if t.phase >= 0 && round - t.phase_lo = t.t_prog - 1 then close_phase t ~round

let observe t ev =
  if t.finished then invalid_arg "Audit.observe: auditor already finished";
  Sink.emit t.recent ev;
  t.cur_round <- Int.max t.cur_round (Event.round ev);
  match ev with
  | Event.Bcast { round; node; uid } -> bcast t ~round ~node ~uid
  | Event.Progress { round; node; _ } -> ignore (progress t ~round ~node)
  | Event.Recv { round; node; src; uid } -> recv t ~round ~node ~src ~uid
  | Event.Ack { round; node; uid; _ } -> ignore (ack t ~round ~node ~uid)
  | Event.Seed_commit { node; owner; _ } -> seed_commit t ~node ~owner
  | Event.Crash { round; node } -> crash t ~round ~node
  | Event.Restart { round; node } -> restart t ~round ~node
  | Event.Phase_start { round; phase; _ } -> phase_start t ~round ~phase
  | Event.Round_end { round; _ } -> round_end t ~round
  | Event.Round_start _ | Event.Transmit _ | Event.Deliver _ | Event.Collision _
  | Event.Mark _ -> ()

let finish t =
  if not t.finished then begin
    t.finished <- true;
    check_delta t ~round:t.cur_round;
    let acked = t.acked in
    t.acked <- [];
    settle t acked;
    overdue t ~elapsed:(t.cur_round + 1) ~now:t.cur_round
  end

let report t =
  {
    rounds_observed = t.cur_round + 1;
    validity_violations = t.invalid;
    ack_count = t.acks;
    late_ack_count = t.late;
    missing_ack_count = t.missing;
    max_ack_latency = t.max_latency;
    reliability_attempts = t.attempts;
    reliability_failures = t.unreliable;
    progress_opportunities = t.opportunities;
    progress_failures = t.failures;
    progress_latencies = List.rev t.latencies_rev;
  }

let violations t = List.rev t.violations_rev
let rounds_seen t = t.cur_round + 1
