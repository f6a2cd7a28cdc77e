(** One trial of a sound {!Registry} scheme over one of its six
    structures, both picked by name. *)

module Make (_ : Nbr_runtime.Runtime_intf.S) : sig
  val run : scheme:string -> structure:string -> Trial.cfg -> Trial.result
  (** [run ~scheme ~structure cfg] builds the pair's modules and runs one
      trial.  Raises [Invalid_argument] for an unknown or foil scheme, an
      unknown structure, and a pair {!Registry.refusal} refuses; the
      message carries the refusal's reason. *)
end
