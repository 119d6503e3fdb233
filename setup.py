"""Build hook for the compiled trajectory loop and the shipped bytecode.

The extension is optional: without a C compiler the package still installs
and runs on the bit-identical pure-Python twin (about 60x slower).
-ffp-contract=off keeps the compiled arithmetic bit-for-bit identical to the
pure-Python loop.

A build also byte-compiles the package, so a built tree imports without
compiling even where the import system may not write ``.pyc`` files
(PYTHONDONTWRITEBYTECODE, a read-only tree).  setuptools' own byte-compiling
is off by default and skips itself under PYTHONDONTWRITEBYTECODE;
``py_compile`` does neither.
"""

import py_compile

from setuptools import Extension, setup
from setuptools.command.build_py import build_py


class build_py_with_bytecode(build_py):
    def byte_compile(self, files):
        for path in files:
            if path.endswith(".py"):
                py_compile.compile(path, doraise=True)


setup(
    cmdclass={"build_py": build_py_with_bytecode},
    ext_modules=[
        Extension(
            "cayleyphase._trajectory",
            ["src/cayleyphase/_trajectory.c"],
            extra_compile_args=["-O2", "-ffp-contract=off"],
            optional=True,
        )
    ],
)
