type callbacks = {
  on_recv : node:int -> round:int -> Messages.payload -> unit;
  on_ack : node:int -> round:int -> Messages.payload -> unit;
}

let no_callbacks =
  {
    on_recv = (fun ~node:_ ~round:_ _ -> ());
    on_ack = (fun ~node:_ ~round:_ _ -> ());
  }

type t = {
  name : string;
  from : int array;  (** the slot's handover round, max_int when empty *)
  tag : int array;  (** the slot's tag *)
  uid : int array;  (** bcasts handed over so far: the next uid *)
  outstanding : bool array;  (** handed over, ack not yet seen *)
  mutable callbacks : callbacks;
}

let create ~name ~n callbacks =
  {
    name;
    from = Array.make n max_int;
    tag = Array.make n 0;
    uid = Array.make n 0;
    outstanding = Array.make n false;
    callbacks;
  }

let busy t ~node = t.outstanding.(node) || t.from.(node) < max_int
let bcasts t ~node = t.uid.(node)

let request t ~node ~round ~tag =
  if busy t ~node then false
  else begin
    t.from.(node) <- round;
    t.tag.(node) <- tag;
    true
  end

(* [from <= round], not [=]: a node that was dead (not polled) at its
   slot's round receives the bcast at the first round it is alive again.
   Without faults the two are equivalent: inputs are polled every
   round. *)
let inputs t ~round ~node =
  if t.from.(node) > round then []
  else begin
    let uid = t.uid.(node) in
    t.from.(node) <- max_int;
    t.uid.(node) <- uid + 1;
    t.outstanding.(node) <- true;
    [ Messages.Bcast (Messages.payload ~tag:t.tag.(node) ~src:node ~uid ()) ]
  end

let notify t ~round ~node outs =
  List.iter
    (function
      | Messages.Recv payload -> t.callbacks.on_recv ~node ~round payload
      | Messages.Ack payload ->
          t.outstanding.(node) <- false;
          t.callbacks.on_ack ~node ~round payload
      | Messages.Committed _ -> ())
    outs

let env t =
  {
    Radiosim.Env.name = t.name;
    (* [inputs] empties the slot — a side effect. *)
    pure_inputs = false;
    inputs = inputs t;
    notify = notify t;
  }

let saturate ?(start = 0) ~n ~senders () =
  let t = create ~name:"saturate" ~n no_callbacks in
  let reissue ~node ~round _ = ignore (request t ~node ~round:(round + 1) ~tag:0) in
  t.callbacks <- { no_callbacks with on_ack = reissue };
  List.iter (fun node -> ignore (request t ~node ~round:start ~tag:0)) senders;
  t

let one_shot ~n ~bcasts =
  let t = create ~name:"one-shot" ~n no_callbacks in
  List.iter (fun (node, round) -> ignore (request t ~node ~round ~tag:0)) bcasts;
  t
