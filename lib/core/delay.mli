(** Delay counting (paper §2, Emmi/Qadeer/Rakamarić 2011).

    Delay bounding is defined w.r.t. the deterministic scheduler that is
    non-preemptive and, when the current thread blocks, picks the next
    enabled thread in creation order round-robin. [delays α t] is the number
    of enabled threads skipped when moving round-robin from [last α] to [t]. *)

val delays : n:int -> last:Tid.t option -> enabled:Tid.t list -> Tid.t -> int
(** [delays ~n ~last ~enabled t] is
    [|{x : 0 ≤ x < distance(last, t) ∧ (last + x) mod n ∈ enabled}|], the
    delay-count increment of scheduling [t] after a schedule ending in
    [last], among [n] threads (created so far). The first step of a schedule
    costs no delays ([last = None]). *)

val count : n_at:(int -> int) -> steps:(Tid.t list * Tid.t) list -> int
(** [count ~n_at ~steps] folds {!delays} over decision records; [n_at i] is
    the number of threads that exist at decision [i] (0-based), since threads
    are created dynamically. *)

val deterministic_choice :
  n:int -> last:Tid.t option -> enabled:Tid.t list -> Tid.t option
(** The zero-delay choice: the first enabled thread reached from [last] in
    round-robin order ([last] itself first). [None] iff [enabled] is empty. *)

val rr_order : n:int -> last:Tid.t option -> enabled:Tid.t list -> Tid.t list
(** [rr_order ~n ~last ~enabled] is [enabled] sorted by round-robin distance
    from [last]: the order in which the deterministic scheduler would
    consider threads, i.e. sorted by increasing per-choice delay cost — the
    [k]-th thread of the order costs exactly [k] delays. An ascending
    [enabled] (as the engine supplies it) is rotated in O(|enabled|),
    returned physically unchanged when no rotation is needed; any other
    order is sorted first. *)
