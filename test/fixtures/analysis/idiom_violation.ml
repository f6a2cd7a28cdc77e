(* Idiom fixture: the ported source-idiom rules on the shared findings
   engine — a type-system escape and raw cell addressing. *)

let coerce x = Obj.magic x

let sneak pool h = P.raw_load_ptr pool h 0
