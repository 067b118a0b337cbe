"""The executor's crash, timeout and retry suites under spawn and forkserver.

The default start method on Linux is ``fork``; macOS and (from Python
3.14) Linux default to ``spawn``/``forkserver``, where a worker imports
everything afresh and inherits nothing.  The classes below re-run the
existing isolation suites unchanged under each non-fork method.
"""

import multiprocessing

import pytest

import tests.test_corpus_executor as corpus_executor
import tests.test_executor_persistent as executor_persistent
import tests.test_guard_runner as guard_runner


@pytest.fixture(params=["spawn", "forkserver"], autouse=True)
def start_method(request):
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(previous, force=True)


class TestCrashIsolation(corpus_executor.TestCrashIsolation):
    pass


class TestRunPoolCrashSafety(guard_runner.TestRunPoolCrashSafety):
    pass


class TestWorkerCrash(guard_runner.TestWorkerCrash):
    pass


class TestWorkerLifetime(executor_persistent.TestWorkerLifetime):
    pass
