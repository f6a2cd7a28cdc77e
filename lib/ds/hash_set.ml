(** Lock-free hash set: fixed-size bucket array of Harris lists (the
    shape of Michael's 2002 lock-free hash table).

    An extension beyond the paper's evaluation set, included for two
    reasons: it shows the k-NBR machinery composing (each bucket is an
    independent Harris list, so an operation's read phases restart from
    that bucket's head — the "root" of the structure it traverses), and it
    gives the benchmark suite a short-traversal / high-allocation workload
    profile between the tree and the long lists.

    Buckets share one pool; the bucket count is fixed at creation (no
    resizing — the paper's structures do not resize either, and resizing
    under SMR is its own research topic). *)

let traversal = Harris_list.traversal

module Make
    (Rt : Nbr_runtime.Runtime_intf.S)
    (Smr : Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t) =
struct
  module P = Nbr_pool.Pool.Make (Rt)
  module HL = Harris_list.Make (Rt) (Smr)

  let name = "hash-set"
  let data_fields = HL.data_fields
  let ptr_fields = HL.ptr_fields
  let max_reservations = HL.max_reservations
  let default_buckets = 64

  type t = { buckets : HL.t array }

  let create ?(buckets = default_buckets) pool =
    { buckets = Array.init buckets (fun _ -> HL.create pool) }

  (* Fibonacci hashing: spreads consecutive keys across buckets. *)
  let bucket t k =
    let h = k * 0x27220a95 land max_int in
    t.buckets.(h mod Array.length t.buckets)

  let contains t ctx k = HL.contains (bucket t k) ctx k
  let insert t ctx k = HL.insert (bucket t k) ctx k
  let delete t ctx k = HL.delete (bucket t k) ctx k

  (** Sequential snapshot, sorted (tests only). *)
  let to_list pool t =
    List.sort compare
      (Array.to_list t.buckets |> List.concat_map (HL.to_list pool))

  let size pool t =
    Array.fold_left (fun acc b -> acc + HL.size pool b) 0 t.buckets
end
