type ('msg, 'input, 'output) round_record = {
  round : int;
  inputs : 'input list array;
  actions : 'msg Process.action array;
  delivered : 'msg option array;
  outputs : 'output list array;
}

type ('msg, 'input, 'output) t = {
  mutable records : ('msg, 'input, 'output) round_record array;
  mutable len : int;
}

(* The engine lends a record's arrays only for the observer call, so a
   kept record is a copy. *)
let recorder () =
  let t = { records = [||]; len = 0 } in
  let push record =
    let record =
      {
        record with
        inputs = Array.copy record.inputs;
        actions = Array.copy record.actions;
        delivered = Array.copy record.delivered;
        outputs = Array.copy record.outputs;
      }
    in
    let cap = Array.length t.records in
    if t.len = cap then begin
      let fresh = Array.make (max 16 (2 * cap)) record in
      Array.blit t.records 0 fresh 0 t.len;
      t.records <- fresh
    end;
    t.records.(t.len) <- record;
    t.len <- t.len + 1
  in
  (t, push)

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get: round out of range";
  t.records.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.records.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.records.(i)
  done;
  !acc

let outputs_of t node =
  fold
    (fun acc record ->
      List.fold_left (fun acc out -> (record.round, out) :: acc) acc
        record.outputs.(node))
    [] t
  |> List.rev

let deliveries_of t node =
  fold
    (fun acc record ->
      match record.delivered.(node) with
      | Some m -> (record.round, m) :: acc
      | None -> acc)
    [] t
  |> List.rev

let transmission_count t node =
  fold
    (fun acc record ->
      match record.actions.(node) with
      | Process.Transmit _ -> acc + 1
      | Process.Listen -> acc)
    0 t
