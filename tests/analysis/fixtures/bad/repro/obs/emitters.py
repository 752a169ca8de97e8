"""R4 fixture: emit sites that disagree with the schema."""


def report(log: object, **extra: object) -> None:
    """Emit an undeclared type, an under-filled payload, a type clash."""
    log.emit("not.in.schema", detail=1)
    log.emit("tuple.drop", replica="r0")
    log.emit("replica.crash", replica="r1")
    log.emit("typed.sample", count="three", **extra)
    # A well-formed site, so every tuple.drop field is seen literally
    # and the schema-side findings stay the dead/ill-typed entries.
    log.emit("tuple.drop", replica="r0", port=3)
