module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)

  type pool = P.t

  let phase st ~read ~write =
    let payload, _recs = read () in
    Smr_stats.uaf_commit st;
    write payload

  let read_only st f =
    let r = f () in
    Smr_stats.uaf_commit st;
    r

  let note_target pool st v =
    if v >= 0 && P.record_read pool v then Smr_stats.note_uaf st

  let read_root pool st root =
    let v = Rt.load root in
    note_target pool st v;
    v

  let read_ptr pool st ~src ~field =
    let v = P.raw_load_ptr pool src field in
    note_target pool st v;
    v

  let read_raw pool ~src ~field = P.raw_load_ptr pool src field

  let consume pool st src = function
    | P.Value v -> v
    | P.Stale v ->
        if P.record_read pool src then Smr_stats.note_uaf st;
        v

  let read_data pool st ~src ~field =
    consume pool st src (P.read_data pool src field)

  let peek_ptr pool st ~src ~field =
    consume pool st src (P.read_ptr pool src field)
end
