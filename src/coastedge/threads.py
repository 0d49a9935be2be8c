"""The package's one way to use a second core: run a callable beside the caller's work."""

from __future__ import annotations

import threading


def run_beside(side, main) -> tuple:
    """`(main(), side())`, with `side` run on a second thread while `main` runs on this one.

    numpy releases the GIL inside its loops, so two array-bound callables
    overlap on two cores. The second thread is joined before this returns
    or raises, and errors show as a serial `main(); side()` would show them:
    an exception of `main` wins, and otherwise whatever `side` raised (any
    `BaseException`) is raised here, in the caller's thread, as itself.
    """
    result = error = None

    def target():
        nonlocal result, error
        try:
            result = side()
        except BaseException as exc:  # raised again below, in the caller's thread
            error = exc

    thread = threading.Thread(target=target, name="coastedge-beside")
    thread.start()
    try:
        main_result = main()
    finally:
        thread.join()
    if error is not None:
        raise error
    return main_result, result
