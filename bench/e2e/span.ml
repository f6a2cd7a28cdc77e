(* Client-side spans around each call into a layer's public functions.

   A traced request records seven timestamps:

     due ── start ── p0 ── p1 ── a1 ── e1 ── fin
       queue    client  poll  admit  exec  complete

   [request] spans [due, fin]; its children are [queue] (due → start,
   the time the request waited for its worker), [guard.poll]
   (Store.health + Guard.poll), [guard.admit] (Guard.admit +
   Guard.pre_exec), [store.exec_on] and [guard.complete].  Unguarded
   workloads have no guard spans: p0 = p1 = a1 marks the start of
   [store.exec_on] and fin = e1.  The client's self time — decoding the
   pre-generated op and routing it to a shard — is the service interval
   [start, fin] minus what the calls inside it cover. *)

type kind = Request | Queue | Guard_poll | Guard_admit | Exec | Guard_complete

let kinds = [| Request; Queue; Guard_poll; Guard_admit; Exec; Guard_complete |]

let name = function
  | Request -> "request"
  | Queue -> "queue"
  | Guard_poll -> "guard.poll"
  | Guard_admit -> "guard.admit"
  | Exec -> "store.exec_on"
  | Guard_complete -> "guard.complete"

let is_guard = function
  | Guard_poll | Guard_admit | Guard_complete -> true
  | Request | Queue | Exec -> false

let index = function
  | Request -> 0
  | Queue -> 1
  | Guard_poll -> 2
  | Guard_admit -> 3
  | Exec -> 4
  | Guard_complete -> 5

(* Timestamp slots of one traced request. *)
let t_due = 0
let t_start = 1
let t_p0 = 2
let t_p1 = 3
let t_a1 = 4
let t_e1 = 5
let t_fin = 6
let nts = 7

(* Start and stop of span [k] over one request's timestamps. *)
let lo (ts : int array) = function
  | Request | Queue -> ts.(t_due)
  | Guard_poll -> ts.(t_p0)
  | Guard_admit -> ts.(t_p1)
  | Exec -> ts.(t_a1)
  | Guard_complete -> ts.(t_e1)

let hi (ts : int array) = function
  | Request | Guard_complete -> ts.(t_fin)
  | Queue -> ts.(t_start)
  | Guard_poll -> ts.(t_p1)
  | Guard_admit -> ts.(t_a1)
  | Exec -> ts.(t_e1)

(* Time inside [lo, hi) covered by the union of the child intervals
   [starts.(i), stops.(i)), i < n.  Children must be sorted by start;
   they may overlap each other and may stick out of the parent. *)
let covered ~lo ~hi (starts : int array) (stops : int array) n =
  let acc = ref 0 and reach = ref lo in
  for i = 0 to n - 1 do
    let s = max starts.(i) !reach and e = min stops.(i) hi in
    if e > s then begin
      acc := !acc + (e - s);
      reach := e
    end
  done;
  !acc

let self_time ~lo ~hi starts stops n = hi - lo - covered ~lo ~hi starts stops n

(* The first requests of a traced phase, kept whole for the trace file:
   request id, worker, then the seven timestamps. *)
module Buf = struct
  type t = {
    data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
    cap : int;
    mutable n : int;
  }

  let stride = nts + 2
  let create cap = { data = Bigarray.(Array1.create int c_layout (max 1 cap * stride)); cap; n = 0 }

  let add t ~rid ~tid (ts : int array) =
    if t.n < t.cap then begin
      let o = t.n * stride in
      t.data.{o} <- rid;
      t.data.{o + 1} <- tid;
      for i = 0 to nts - 1 do
        t.data.{o + 2 + i} <- ts.(i)
      done;
      t.n <- t.n + 1
    end
end

(* Chrome trace-event JSON, the format Perfetto and chrome://tracing
   load.  [request] and [queue] are async slices keyed by request id,
   because an open loop lets one worker's requests overlap in due time;
   the service spans never overlap on a worker, so they are complete
   ("X") slices on its track.  Every event carries its request id and
   its parent span's name. *)
let write_chrome oc ~guard (b : Buf.t) =
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  let first = ref true in
  let sep () = if !first then first := false else output_string oc ",\n" in
  (* Timestamps count from the earliest due time in the file. *)
  let origin = ref max_int in
  for r = 0 to b.Buf.n - 1 do
    origin := min !origin b.Buf.data.{(r * Buf.stride) + 2 + t_due}
  done;
  let us ns = float_of_int (ns - !origin) /. 1000.0 in
  let ts = Array.make nts 0 in
  for r = 0 to b.Buf.n - 1 do
    let o = r * Buf.stride in
    let rid = b.Buf.data.{o} and tid = b.Buf.data.{o + 1} in
    for i = 0 to nts - 1 do
      ts.(i) <- b.Buf.data.{o + 2 + i}
    done;
    Array.iter
      (fun k ->
        let parent = if k = Request then "" else name Request in
        match k with
        | Request | Queue ->
            sep ();
            Printf.fprintf oc
              "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\",\"id\":%d,\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"args\":{\"req\":%d,\"parent\":\"%s\"}}"
              (name k) rid tid (us (lo ts k)) rid parent;
            sep ();
            Printf.fprintf oc
              "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\",\"id\":%d,\"pid\":1,\"tid\":%d,\"ts\":%.3f}"
              (name k) rid tid (us (hi ts k))
        | _ when is_guard k && not guard -> ()
        | _ ->
            sep ();
            Printf.fprintf oc
              "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"parent\":\"%s\"}}"
              (name k) tid (us (lo ts k))
              (float_of_int (hi ts k - lo ts k) /. 1000.0)
              rid parent)
      kinds
  done;
  output_string oc "\n]}\n"
