from nmqrc import harness


def pytest_report_header(config):
    """The software and BLAS the results depend on, so that a failing
    byte-identity or tolerance test names them."""
    env = harness._environment()
    blas = env["blas"] or {}
    threads = " ".join(f"{var}={value}" for var, value in env["threads"].items())
    return [
        f"nmqrc {env['nmqrc']}: python {env['python']}, numpy {env['numpy']}, "
        f"blas {blas.get('name')} {blas.get('version')}, cpu_count {env['cpu_count']}",
        f"threads: {threads}; OpenBLAS thread setter found: {harness._blas_threads() is not None}",
    ]
