"""Build hook for the compiled trajectory loop.

The extension is optional: without a C compiler the package still installs
and runs on the bit-identical pure-Python twin (about 60x slower).
-ffp-contract=off keeps the compiled arithmetic bit-for-bit identical to the
pure-Python loop.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "cayleyphase._trajectory",
            ["src/cayleyphase/_trajectory.c"],
            extra_compile_args=["-O2", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
