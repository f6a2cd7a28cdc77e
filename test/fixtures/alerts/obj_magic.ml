(* Alert fixture: a type-system escape.  Alert nbr_obj_magic rejects it. *)

let coerce x : int = Obj.magic x
