(** The on-disk program format of the corpus: a small s-expression
    language over the fuzz AST.

    A program file is a sequence of [(thread stmt...)] forms, one per
    thread, preceded by the version header comment
    [# sct-corpus program v1]. Lines starting with [#] are comments.
    Statement forms:

    {v
    (yield)                 (write V N)        (incr V)
    (check V N)             (atomic-incr)      (cas E R)
    (sem-wait)              (sem-post)         (signal)
    (broadcast)             (cond-wait M)      (barrier)
    (arr-set I V)           (arr-get I)        (join T)
    (lock M stmt...)        (trylock M stmt...)
    (loop N stmt...)
    (if V N (then stmt...) (else stmt...))
    (future S stmt...)      (await S)
    (send C V)              (recv C)
    (wq-put T)              (wq-take)
    v}

    {!to_string} is canonical — equal ASTs render to equal bytes — and
    {!parse} is its exact inverse ([parse (to_string p) = Ok p] for every
    AST, asserted by a qcheck law in the test suite), so promoted corpus
    files are byte-stable and diffable. *)

val header : string
(** ["# sct-corpus program v1"]. *)

val to_string : Sct_fuzz.Ast.program -> string
(** The canonical rendering, header included, 2-space indentation. *)

val parse : string -> (Sct_fuzz.Ast.program, string) result
(** Parse a program file. The first non-blank line must be exactly
    {!header} (a future v2 file is an error, not a guess). Otherwise
    whitespace-insensitive; [#] comments run to end of line. Integers are
    decimal, [-?[0-9]+], as {!to_string} prints them: [0x1], [+1], [0b11],
    [0o7] and [1_0] are errors. Every error reads
    ["offset N: description"], where [N] is the byte offset in the input
    of the offending token or form (for an unclosed parenthesis, of the
    ['('] that is never closed; for a blank input, [0]). *)
