"""A pytest plugin that makes every walk of the session make its records
on a second thread, wherever the process may run on more than one CPU:
the arc floor, walk._THREAD_ARCS, is 0.  Tests that set the floor
themselves still do.  Run the suite with it from the repository root:

    python -m pytest -p tests.record_thread_plugin
"""


def pytest_configure(config):
    from rotwalk import walk

    walk._THREAD_ARCS = 0
