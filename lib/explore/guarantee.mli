(** Bounded coverage guarantees (paper §1): "if the search manages to
    explore all schedules with at most c preemptions, then any undiscovered
    bugs in the program require at least c + 1 preemptions". *)

type t =
  | Verified  (** the entire schedule space was explored, no bug *)
  | Bounded of { kind : [ `Preemptions | `Delays ]; bound : int }
      (** every schedule within [bound] explored without a bug: a remaining
          bug needs at least [bound + 1] preemptions (resp. delays) *)
  | Falsified of { bound : int option }  (** a bug was found *)
  | None_  (** nothing can be guaranteed (limit hit inside the first level,
               or a non-systematic technique) *)

val of_stats : Stats.t -> t
(** The guarantee a campaign's statistics support. [Stats.complete] reads
    as "the schedule space was exhausted" ({!Verified}) for every technique
    but MapleAlg, whose [complete] only records that every candidate was
    attempted: a bug-free MapleAlg campaign gives {!None_}. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
