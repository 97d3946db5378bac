from gelfand.report import Check, first_failure


def test_first_failure_fails_with_the_first_witness():
    assert first_failure("c", iter(["a", "b"]), "all good") == Check("c", False, "a")


def test_first_failure_passes_with_its_detail():
    assert first_failure("c", iter([]), "all good") == Check("c", True, "all good")
    assert first_failure("c", []) == Check("c", True, "")


def test_first_failure_reads_lazily():
    def witnesses():
        yield "first"
        raise AssertionError("read past the first witness")

    assert first_failure("c", witnesses()) == Check("c", False, "first")
